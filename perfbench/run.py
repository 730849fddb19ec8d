"""bailrule benchmark: four seeded workloads, measured from outside the program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics: every command-line operation
is a fresh ``python -m bailrule`` process, the ``model`` workload a session
in one worker process, one operation at a time (a closed loop with one
client).  ``--trace 1`` is the separate traced run: it alternates untraced
operations with operations run under the span tracer and reports per-layer
metrics.  ``--workload all`` runs every workload both ways.

Inputs are drawn from ``--seed``; every operation's output is checked
against the benchmark's own oracle.  The program is imported from ``src/``
of the checkout and nowhere else.  Results, provenance and spans go to
``.perfbench_runs/`` in the checkout; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import metrics
import spans
import workloads

HERE = Path(__file__).resolve().parent
RUNS_DIR = ".perfbench_runs"
WORKLOADS = ("audit", "allocate", "simulate", "model")
#: Fresh-process imports timed per run for ``setup_s``.
SETUP_REPEATS = 3
#: ``-X importtime`` runs per traced run for the ``import.*`` metrics.
IMPORTTIME_REPEATS = 3
#: Operations per untraced run however short the window, so that the tail
#: percentile has ``metrics.TAIL_BEYOND`` samples beyond it; and traced pairs.
MIN_OPS = metrics.TAIL_BEYOND + 1
MIN_TRACED_PAIRS = 3
#: A single operation that takes longer than this is killed and failed.
OP_TIMEOUT_S = 60.0
#: Nominal duration of one ``Reference.sample``; see ``Reference``.
REF_S = 0.125


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    rss_mib: float
    traced: bool
    error: str | None = None
    layers: dict | None = field(default=None, repr=False)
    import_s: float = 0.0
    bench_s: float = 0.0
    bytes_written: int = 0


def spawn(argv, env, cwd: Path, log: Path, timeout: float = OP_TIMEOUT_S):
    """Run a process to completion: (wall s, user+sys s, peak RSS KiB, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        done = threading.Event()
        killer = threading.Timer(timeout, lambda: done.is_set() or proc.kill())
        killer.start()
        try:
            _pid, status, ru = os.wait4(proc.pid, 0)
        finally:
            done.set()
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, proc.returncode


def _tail_text(path: Path, limit: int = 400) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip()
    return text[-limit:]


class CliRunner:
    """Operations of a command-line workload, one fresh process each."""

    def __init__(self, workload, root: Path, env: dict, workdir: Path):
        self.w, self.root, self.env = workload, root, env
        self.out = workdir / "out"
        self.logs = workdir / "logs"
        self.spans = workdir / "spans"
        self.logs.mkdir()
        self.spans.mkdir()

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def op(self, k: int, traced: bool) -> Op:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        args = self.w.argv(k, self.out)
        log = self.logs / f"op{k}.log"
        report = self.spans / f"op{k}.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_op.py"), str(report),
                    str(self.spans / f"op{k}.tsv.gz"), "--", *args]
        else:
            argv = [sys.executable, "-m", "bailrule", *args]
        wall, cpu, rss_kib, rc = spawn(argv, self.env, self.root, log)
        op = Op(wall, cpu, rss_kib / 1024.0, traced)
        op.bytes_written = sum(p.stat().st_size for p in self.out.iterdir())
        if rc != 0:
            op.error = f"exit code {rc}: {_tail_text(log)}"
            return op
        try:
            if traced:
                rep = json.loads(report.read_text(encoding="utf-8"))
                op.layers, op.import_s, op.bench_s = rep["layers"], rep["import_s"], rep["bench_s"]
                op.layers["counts"]["bytes_written"] = op.bytes_written
            self.w.check(k, self.out)
        except (workloads.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            op.error = f"output check: {exc}"
        return op


class ModelRunner:
    """Library sessions in one worker process of the benchmark's own."""

    entry = "bailrule"

    def __init__(self, seed: int, root: Path, env: dict, workdir: Path):
        self.seed, self.root, self.env = seed, root, env
        self.spans = workdir / "spans.tsv.gz"
        self.log = workdir / "worker.log"
        self.proc = None
        self.ready: dict = {}

    def start(self) -> None:
        self._log = open(self.log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "session.py"), str(self.seed), str(self.spans)],
            env=self.env, cwd=self.root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError(f"model worker failed to start: {_tail_text(self.log)}")
        self.ready = json.loads(line)

    def stop(self) -> None:
        if self.proc is not None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=OP_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        self._log.close()

    def op(self, k: int, traced: bool) -> Op:
        """One session; a worker that dies or hangs ends the run."""
        try:
            self.proc.stdin.write(json.dumps({"k": k, "trace": traced}) + "\n")
            self.proc.stdin.flush()
            ready, _w, _x = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
            reply = json.loads(self.proc.stdout.readline() or "null") if ready else None
        except (OSError, ValueError):
            reply = None
        if reply is None:
            self.proc.kill()
            raise RuntimeError(f"model worker died or hung in op {k}: {_tail_text(self.log)}")
        return Op(reply["wall_s"], reply["cpu_s"], reply["maxrss_kib"] / 1024.0, traced,
                  error=reply["error"], layers=reply.get("layers"))


class Reference:
    """A fixed program-independent workload timed all through a run.

    The host this benchmark was built on runs the same work up to 30% slower
    for minutes at a time, in CPU time as much as in wall time.  A run sits
    inside one such stretch, so raw times spread across runs with the host's
    load, not with the program's speed.  The reference is a fresh interpreter importing
    numpy, which stresses the host the way an operation does (process start,
    shared libraries, module code).  It is sampled once per setup import and
    once per operation, never while the program runs, and every time metric
    of the run is scaled by ``REF_S`` over the samples' median.  A slower
    program still reads slower; raw times are kept beside the scaled ones.
    """

    ARGV = (sys.executable, "-c", "import numpy")

    def __init__(self, env: dict) -> None:
        self.env = env
        self.samples: list = []

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.ARGV, env=self.env, check=True, timeout=OP_TIMEOUT_S)
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        return REF_S / metrics.median(self.samples)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def check_program(root: Path, env: dict) -> None:
    """Prove that the program the children import is this checkout's."""
    code = "import importlib.util as u; print(u.find_spec('bailrule').origin)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    where = Path(proc.stdout.strip() or ".").resolve()
    if proc.returncode != 0 or not where.is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"bailrule does not import from {root / 'src'}: "
                           f"{(proc.stdout + proc.stderr).strip()[-400:]}")


def import_times(entry: str, root: Path, env: dict, ref: Reference) -> list:
    """``setup_s`` samples: wall time of a fresh process importing ``entry``."""
    argv = [sys.executable, "-c", f"import {entry}"]
    out = []
    for _ in range(SETUP_REPEATS):
        ref.sample()
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=root, check=True, timeout=OP_TIMEOUT_S)
        out.append(time.perf_counter() - start)
    return out


def import_breakdown(entry: str, root: Path, env: dict) -> dict:
    """``import.*`` metrics: medians over ``python -X importtime`` runs."""
    argv = [sys.executable, "-X", "importtime", "-c", f"import {entry}"]
    samples = {m: [] for m in metrics.IMPORTS}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True,
                              check=True, timeout=OP_TIMEOUT_S)
        rows = spans.parse_importtime(proc.stderr)
        for m, pkg in metrics.IMPORTS.items():
            samples[m].append(spans.package_import_s(rows, pkg))
    return {m: metrics.median(v) for m, v in samples.items()}


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance(root: Path, name: str, seed: int, sizes: dict, inputs: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "input_sizes": sizes,
        "inputs_sha256": inputs,
    }


def measure(runner, seconds: int, trace: bool, ref: Reference | None) -> list:
    """Closed loop: the next operation starts when the previous one is done.

    Untraced runs sample the reference after every operation; traced runs
    alternate untraced and traced operations.
    """
    ops = []
    floor = 2 * MIN_TRACED_PAIRS if trace else MIN_OPS
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ops) < floor:
        k = len(ops)
        ops.append(runner.op(k, trace and k % 2 == 1))
        if ref is not None:
            ref.sample()
    return ops


def end_to_end(ops: list, setup: list, items_per_op: int, ref: Reference) -> tuple:
    """Every time scaled by the run's reference factor; raw times in notes."""
    good = [o for o in ops if o.error is None] or ops
    walls = [o.wall_s for o in good]
    value, pct, beyond = metrics.tail(walls)
    failed = sum(o.error is not None for o in ops)
    raw = {
        "setup_s": metrics.median(setup),
        "op_p50_s": metrics.median(walls),
        "op_tail_s": value,
        "op_cpu_s": metrics.median(o.cpu_s for o in good),
        "items_per_s": items_per_op * len(good) / sum(walls),
    }
    f = ref.factor()
    values = {m: v / f if m == "items_per_s" else v * f for m, v in raw.items()}
    values["peak_rss_mib"] = metrics.median(o.rss_mib for o in good)
    values["success_rate"] = 1.0 - failed / len(ops)
    notes = {
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "ops_timed": len(good),
        "error_rate": failed / len(ops),
        "raw": raw,
        "reference_factor": f,
        "reference_samples_s": ref.samples,
        "setup_samples_s": setup,
    }
    return values, notes


def per_layer(ops: list, imports: dict) -> tuple:
    plain = [o for o in ops if not o.traced and o.error is None]
    traced = [o for o in ops if o.traced and o.error is None]
    values = dict(imports)
    if plain and traced:
        per_op = [metrics.layer_values(o.layers) for o in traced]
        for m in per_op[0]:
            values[m] = metrics.median(p[m] for p in per_op)
        values["trace.overhead_s"] = (
            metrics.median(o.wall_s for o in traced) - metrics.median(o.wall_s for o in plain)
        )
        values["trace.unaccounted_s"] = metrics.median(
            o.wall_s - o.import_s - o.bench_s - o.layers["top_s"] for o in traced
        )
    else:
        values.update({m: 0.0 for m in metrics.per_layer_names() if m not in values})
    notes = {"traced_ops": len(traced), "untraced_ops": len(plain)}
    return values, notes


def run_one(root: Path, name: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = root / RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "inputs").mkdir(parents=True)
    env = child_env(root / "src")

    if name == "model":
        runner = ModelRunner(seed, root, env, workdir)
        entry, items_per_op, item = runner.entry, 1, "sessions"
    else:
        w = workloads.CLI_WORKLOADS[name](np.random.default_rng(seed), workdir / "inputs")
        runner = CliRunner(w, root, env, workdir)
        entry, items_per_op, item = w.entry, w.items_per_op, w.item

    check_program(root, env)
    ref = None if trace else Reference(env)
    if trace:
        setup = import_breakdown(entry, root, env)
    else:
        setup = import_times(entry, root, env, ref)
    runner.start()
    try:
        ops = measure(runner, seconds, trace, ref)
    finally:
        runner.stop()

    if name == "model":
        sizes, inputs = runner.ready["sizes"], {"instance": runner.ready["inputs_sha256"]}
    else:
        sizes = w.sizes
        inputs = {k: workloads.sha256(p) for k, p in w.files.items()}
    if trace:
        values, notes = per_layer(ops, setup)
    else:
        values, notes = end_to_end(ops, setup, items_per_op, ref)
    failed = sum(o.error is not None for o in ops)
    record = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "item": item,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": metrics.unit(m)} for m, v in values.items()},
        "notes": notes,
        "errors": [f"op {k}: {o.error}" for k, o in enumerate(ops) if o.error][:10],
        "ops": [{k: v for k, v in asdict(o).items() if k != "layers"} for o in ops],
        "provenance": provenance(root, name, seed, sizes, inputs),
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for scratch in ("out", "inputs"):
        shutil.rmtree(workdir / scratch, ignore_errors=True)
    return record


def report(record: dict) -> None:
    n, failed = record["attempted"], record["failed"]
    print(f"{record['workload']}: seed {record['provenance']['seed']}, trace {record['trace']}, "
          f"{n} ops, {failed} failed, {record['seconds']} s window")
    notes = record["notes"]
    raw = notes.get("raw", {})
    if raw:
        print(f"  times scaled by the reference factor {notes['reference_factor']:.4f}")
    for m, mv in record["metrics"].items():
        extra = f"  raw {raw[m]:.6g}" if m in raw else ""
        if m == "op_tail_s":
            extra += (f"  (p{notes['op_tail_percentile']} of {notes['ops_timed']} ops, "
                      f"{notes['op_tail_samples_beyond']} beyond)")
        elif m == "items_per_s":
            extra += f"  ({record['item']} per second)"
        print(f"  {m:<46} {mv['value']:>14.6g} {mv['unit']}{extra}")
    if not record["trace"]:
        print(f"  {'error_rate':<46} {notes['error_rate']:>14.6g} ratio  ({failed}/{n})")
    for err in record["errors"]:
        print(f"  FAILED {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "bailrule" / "__init__.py").is_file():
        print(f"error: no src/bailrule in {root}; run from the root of a bailrule checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    try:
        records = [run_one(root, w, args.seed, args.seconds, t) for w, t in runs]
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        report(record)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": records[-1]["metrics"] if len(records) == 1 else
              {f"{r['workload']}.trace{r['trace']}.{m}": v
               for r in records for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
