"""Self-tests of the benchmark's own arithmetic and oracles.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        # parent [0, 10]; children overlap on [2, 3] and one runs past the end
        tree = [(0.0, 10.0, -1), (1.0, 3.0, 0), (2.0, 5.0, 0), (8.0, 12.0, 0), (1.5, 2.5, 1)]
        own = spans.self_times(tree)
        self.assertAlmostEqual(own[0], 10.0 - (4.0 + 2.0))
        self.assertAlmostEqual(own[1], 2.0 - 1.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(spans.self_times([(2.0, 2.5, -1)]), [0.5])


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, beyond = metrics.tail(list(range(30, 0, -1)))
        self.assertEqual((value, pct, beyond), (20, 66, 10))

    def test_eleven_samples_give_the_minimum(self):
        self.assertEqual(metrics.tail([5.0] + [9.0] * 10), (5.0, 9, 10))

    def test_too_few_samples_are_reported_as_such(self):
        value, _pct, beyond = metrics.tail([3.0, 1.0, 2.0])
        self.assertEqual((value, beyond), (1.0, 2))


class AllocationOracle(unittest.TestCase):
    def test_worked_instance(self):
        # two towns, theta 1 and 2, unit rules, budget 1: lambda = 1, split (0, 1)
        self.assertEqual(oracles.clearing_price([1.0, 2.0], [1.0, 1.0], [10.0, 10.0], 1.0), 1.0)

    def test_agrees_with_allocate(self):
        import bailrule as br

        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            params = [br.MechanismParams(rng.uniform(1, 3), rng.uniform(1, 4), rng.uniform(0, 1),
                                         rng.uniform(0, 0.5), rng.uniform(0.1, 0.6), 3.0)
                      for _ in range(n)]
            theta = rng.uniform(0.0, 3.0, n)
            margin = np.array([p.omega_b * t - p.omega_T if t >= p.T else 0.0
                               for p, t in zip(params, theta)])
            c = np.array([p.c for p in params])
            cap = np.array([p.b_bar for p in params])
            budget = float(rng.uniform(0.0, 1.0) * oracles.split_at(0.0, margin, c, cap).sum())
            got = br.allocate(br.AllocationProblem(tuple(zip(params, theta)), budget))
            want = oracles.clearing_price(margin, c, cap, budget)
            self.assertAlmostEqual(got.lambda_B, want, delta=1e-9 * max(1.0, want))
            np.testing.assert_allclose(got.allocations, oracles.split_at(want, margin, c, cap),
                                       atol=1e-9)


class VoteCount(unittest.TestCase):
    def test_brute_cap_matches_empirical_cap(self):
        import bailrule as br

        rng = np.random.default_rng(9)
        w = rng.dirichlet(np.ones(25)) * 0.7
        x = rng.uniform(0.0, 1.5, 25)
        leg = br.FiniteLegislature(w, x, 1.0 - w.sum())
        for theta in rng.uniform(0.0, 3.0, 10):
            self.assertEqual(br.empirical_cap(theta, leg, 0.3), oracles.brute_cap(theta, w, x, 0.3))


class Tracing(unittest.TestCase):
    def test_wrappers_see_calls_and_come_off(self):
        import bailrule as br
        import bailrule.allocation

        original = bailrule.allocation.allocate
        tracer = spans.Tracer()
        tracer.begin_op(0)
        restore = spans.install(tracer)
        try:
            p = br.MechanismParams(1.0, 1.0, 0.0, 0.0, 10.0, 10.0)
            br.cap_ordering_report(br.AllocationProblem(((p, 1.0), (p, 2.0)), 1.0))
        finally:
            spans.uninstall(restore)
        summary = tracer.end_op()
        self.assertIs(bailrule.allocation.allocate, original)
        self.assertEqual(summary["calls"]["allocation.allocate"], 1)
        self.assertEqual(summary["calls"]["allocation.cap_ordering_report"], 1)
        self.assertGreater(summary["counts"]["policy.tlc_policy_linear@allocation"], 0)
        values = metrics.layer_values(summary)
        self.assertEqual(values["allocation.allocate.calls"], 1)
        self.assertAlmostEqual(summary["top_s"],
                               sum(summary["self_s"].values()), delta=1e-9)


class ImportTime(unittest.TestCase):
    # the name column is indented by one space plus two per nesting level
    LOG = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:       300 |        300 |       scipy.special",
        "import time:        10 |        310 |     scipy.stats",
        "import time:        20 |        500 |   bailrule",
        "import time:         5 |        505 | bailrule.cli",
        "import time:         7 |          7 | json",
    ])

    def test_outermost_modules_of_each_package(self):
        rows = spans.parse_importtime(self.LOG)
        self.assertEqual(rows[0][:2], (3, "numpy.core"))
        self.assertAlmostEqual(rows[0][3], 100e-6)
        self.assertAlmostEqual(spans.package_import_s(rows, "bailrule"), 505e-6)
        self.assertAlmostEqual(spans.package_import_s(rows, "numpy"), 150e-6)
        self.assertAlmostEqual(spans.package_import_s(rows, "scipy"), 310e-6)


if __name__ == "__main__":
    unittest.main()
