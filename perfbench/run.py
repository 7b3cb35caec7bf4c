"""quhom benchmark: real CLI commands, timed and checked.

    python3 perfbench/run.py --workload grid_params --seed 1 --seconds 28 --trace 0

The library is imported from ``src/`` next to this directory, never from
an installed copy.  One client runs a closed loop: each operation is
``quhom.cli.main(argv)`` on a generated document, with stdout captured
and checked by ``gate.check``.  A run repeats rounds of a fixed
composition (see ``workloads``), each job of a round in a freshly forked
child, until the next round would end past ``--seconds``, and at least
three rounds.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (a round's time
with each operation at its median over the rounds), ``op_s_p50`` (median
operation time), ``peak_rss_mb`` (95th percentile over the run's job
processes of each one's peak RSS) and ``setup_s`` (median of set-up
trials spread over the run, each a fresh-interpreter import plus writing
one round's documents).  ``--trace 1`` runs every round a second time,
traced, in other children, and prints the per-layer metrics
of ``tracer`` per traced round, with ``trace.overhead_frac``.  The last
line of stdout is the result object; the line before it holds the run
metadata.  The exit code is 0 even when operations fail: failures are
counted, not hidden.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_TRIALS = 7
MIN_ROUNDS = 3  # so that each per-position median has three samples
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile
NPROC = len(os.sched_getaffinity(0))

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))
from perfbench import gate, tracer, workloads  # noqa: E402


def _limit_blas_threads():
    """Cap BLAS threads at the core count before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var)
        if current is None or not current.isdigit() or int(current) > NPROC:
            os.environ[var] = str(NPROC)


def _blas_threads() -> dict:
    """Live thread count of each OpenBLAS that numpy and scipy ship, by library file."""
    import ctypes

    counts = {}
    for pkg in ("numpy", "scipy"):
        libs = Path(sys.modules[pkg].__file__).parent.parent / f"{pkg}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            dll = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    counts[lib.name] = fn()
                    break
    return counts


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "quhom").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _write_round(jobs, directory: Path) -> list[Path]:
    paths = []
    for job in jobs:
        path = directory / f"{job.name}.json"
        path.write_text(json.dumps(job.doc, sort_keys=True), encoding="utf-8")
        paths.append(path)
    return paths


def _prepare(args, index: int, workdir: Path):
    jobs = workloads.round_jobs(args.workload, args.seed, index)
    return jobs, _write_round(jobs, workdir)


def _fresh_import():
    """What every CLI call pays first: interpreter start and importing quhom, numpy, scipy."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import quhom.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)


@functools.cache
def library_caches() -> list:
    """The library's ``lru_cache`` functions, found once before any fork.

    Modules are skipped: asking numpy's or scipy's lazy loader for a
    missing attribute searches for a submodule of that name.
    """
    return [obj for name, mod in list(sys.modules.items()) if name.startswith("quhom")
            for obj in vars(mod).values()
            if not isinstance(obj, types.ModuleType) and callable(getattr(obj, "cache_clear", None))]


class JobRun:
    """One job's commands, run in order in this process.

    Run in a forked child, it starts with the parent's imports and empty
    library caches, and the child's peak RSS is the job's alone.
    ``result`` is plain data so that it can travel back through a pipe.
    """

    def __init__(self, job, path: Path, workdir: Path, trace):
        from quhom import cli

        self.job, self.path, self.workdir, self.trace = job, path, workdir, trace
        self.main = self.untraced_main = cli.main
        if trace is not None:
            self.main = lambda argv: trace.call(tracer.ROOT, cli.main, argv)
        self.caches = library_caches()
        self.result = {"wall": 0.0, "ops": [], "attempted": 0, "failures": [], "not_run": [],
                       "known_defect": [], "probe_passed": []}

    def _op(self, argv):
        """One CLI call: (exit code or None, stdout, exception or None, seconds)."""
        for fn in self.caches:  # a fresh process starts with empty caches
            fn.cache_clear()
        gc.collect()
        out = io.StringIO()
        rc, exc = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.main(argv)
        except SystemExit as stop:
            rc = stop.code
        except Exception as raised:  # what a user would see as a traceback
            exc = raised
        return rc, out.getvalue(), exc, time.perf_counter() - start

    def _fail(self, op: str, kind: str, reason: str):
        self.result["failures"].append({"op": op, "kind": kind, "reason": reason})

    def _command(self, path: Path, argv: list[str], facts: dict):
        """Run one command and gate it: (seconds, stdout, None or (kind, reason))."""
        rc, out, exc, took = self._op([argv[0], str(path), *argv[1:]])
        if exc is None:
            return took, out, gate.check(argv, rc, out, facts)
        frames = traceback.extract_tb(exc.__traceback__)
        frame = next((f for f in reversed(frames) if Path(f.filename).is_relative_to(SRC)), frames[-1])
        return took, out, ("traceback", f"{type(exc).__name__} in "
                                        f"{Path(frame.filename).stem}.{frame.name}: {exc}")

    def run(self) -> dict:
        """The job's commands in order, then its probe.

        They depend on each other (``verify`` is checked with what
        ``params`` established, and a ``convert`` output is the next
        command's input), so after a failed command the remaining ones are
        not run: they count neither as attempted nor as failed, and are
        listed under ``not_run``.  The probe (see ``workloads.KNOWN_DEFECT``)
        keeps an untimed place in ``ops``; its traceback is listed under
        ``known_defect``, a pass under ``probe_passed``, and only a wrong
        output counts, as an attempted and failed operation.
        """
        if self.trace is not None:
            self.trace.install()
        job, path, facts = self.job, self.path, dict(self.job.facts)
        commands = job.commands + ([job.probe] if job.probe else [])
        for position, argv in enumerate(job.commands):
            self.result["attempted"] += 1
            op = f"{job.name}:{argv[0]}"
            took, out, verdict = self._command(path, argv, facts)
            self.result["wall"] += took
            self.result["ops"].append(took)
            if verdict is not None:
                self._fail(op, *verdict)
                for rest in commands[position + 1:]:
                    self.result["ops"].append(None)
                    self.result["not_run"].append(f"{job.name}:{rest[0]}")
                break
            if argv[0] == "convert":
                path = self.workdir / f"{job.name}.complex.json"
                path.write_text(json.dumps(json.loads(out)["complex"]), encoding="utf-8")
        if self.trace is not None:  # the probe is neither timed nor traced
            self.trace.uninstall()
            self.result["trace"] = self.trace.state()
            self.main = self.untraced_main
        if job.probe and not self.result["failures"]:
            self._probe(path, facts)
        return self.result

    def _probe(self, path: Path, facts: dict):
        op = f"{self.job.name}:{self.job.probe[0]}"
        _, _, verdict = self._command(path, self.job.probe, facts)
        self.result["ops"].append(None)
        if verdict is None:
            self.result["probe_passed"].append(op)
        elif verdict[0] == "traceback":
            self.result["known_defect"].append({"op": op, "reason": verdict[1]})
        else:
            self.result["attempted"] += 1
            self._fail(op, *verdict)


def run_in_child(make_job_run) -> dict:
    """Run ``make_job_run().run()`` in a forked child; adds the child's peak RSS in MB."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                json.dump(make_job_run().run(), pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(f"job process ended with status {status}")
    result = json.loads(data)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def run_round(jobs, paths, workdir: Path, trace=None) -> dict:
    """One round, each job in a child of its own, as each CLI call starts a process.

    A process that ran several jobs would carry one job's heap growth into
    the next, so its peak would depend on the order of the random inputs.
    ``peak_rss_mb`` lists the job processes' peaks in job order.  With a
    ``trace``, every child is traced and its spans are merged into it.
    """
    result = {"wall": 0.0, "ops": [], "attempted": 0, "failures": [], "not_run": [],
              "known_defect": [], "probe_passed": [], "peak_rss_mb": []}
    for job, path in zip(jobs, paths):
        part = run_in_child(lambda: JobRun(job, path, workdir, None if trace is None else tracer.Tracer()))
        if trace is not None:
            trace.merge(part["trace"])
        result["wall"] += part["wall"]
        result["attempted"] += part["attempted"]
        for key in ("ops", "failures", "not_run", "known_defect", "probe_passed"):
            result[key] += part[key]
        result["peak_rss_mb"].append(part["peak_rss_mb"])
    return result


def _round_of_medians(rounds) -> float:
    """The round's time with each operation timed at its median over the rounds.

    All rounds of a workload list the same operations in the same order,
    so position i is the same command on the same kind of input.  Taking
    the median per position keeps one slow input, or one slow stretch of
    the machine, from deciding the figure.
    """
    total = 0.0
    for times in zip(*(r["ops"] for r in rounds)):
        ran = [t for t in times if t is not None]
        total += statistics.median(ran) if ran else 0.0
    return total


def _p95(values) -> float:
    """95th percentile, interpolated between the data points around it."""
    return statistics.quantiles(values, n=20, method="inclusive")[-1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quhom" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'quhom'}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import quhom.cli

    if Path(quhom.cli.__file__).resolve().parent != (SRC / "quhom").resolve():
        print(f"error: imported quhom from {quhom.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    blas = _blas_threads()
    if any(n > NPROC for n in blas.values()):
        print(f"error: BLAS uses {blas} threads on {NPROC} cores", file=sys.stderr)
        return 2

    library_caches()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        prepared, setups = {}, []

        def setup_trial():
            """One set-up: a fresh interpreter importing the library, then writing a round's documents."""
            index = len(setups)
            start = time.perf_counter()
            _fresh_import()
            prepared[index] = _prepare(args, index, workdir)
            setups.append(time.perf_counter() - start)

        # Rounds get the whole --seconds; the set-up trials run between
        # rounds, spread evenly over that time, so that setup_s is the
        # median over the whole run rather than over its first seconds.
        trace = tracer.Tracer() if args.trace else None
        untraced, traced = [], []
        measured, longest, index = 0.0, 0.0, 0
        setup_trial()
        while True:
            while len(setups) < SETUP_TRIALS * measured / args.seconds:
                setup_trial()
            round_start = time.perf_counter()
            jobs, paths = prepared.pop(index) if index in prepared else _prepare(args, index, workdir)
            untraced.append(run_round(jobs, paths, workdir))
            if trace is not None:  # the same round again, traced, in fresh processes
                traced.append(run_round(jobs, paths, workdir, trace))
            index += 1
            took = time.perf_counter() - round_start
            measured += took
            longest = max(longest, took)
            if index >= MIN_ROUNDS and measured + longest > args.seconds:
                break
        while len(setups) < SETUP_TRIALS:
            setup_trial()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    rounds = untraced + traced
    ops = [seconds for r in untraced for seconds in r["ops"] if seconds is not None]
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    not_run = [op for r in rounds for op in r["not_run"]]
    known_defect = [probe for r in rounds for probe in r["known_defect"]]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "rounds": len(rounds),
        "ops_per_round": len(untraced[0]["ops"]),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "not_run": not_run,
        "known_defect": workloads.KNOWN_DEFECT,
        "known_defect_ops": known_defect,
        # failed_frac if the probes counted, as the seed commit's baseline
        "known_defect_frac": len(known_defect) / (attempted + len(known_defect)),
        "probe_passed": [op for r in rounds for op in r["probe_passed"]],
        "op_s_samples": len(ops),
        "op_s_p90": statistics.quantiles(ops, n=10)[-1] if len(ops) >= P90_MIN_SAMPLES else None,
        "round_walls_s": [r["wall"] for r in untraced],
        "round_peak_rss_mb": [max(r["peak_rss_mb"]) for r in untraced],
        "setup_trials_s": setups,
    }
    if trace is None:
        metrics = {
            "wall_s": (_round_of_medians(untraced), "s"),
            "op_s_p50": (statistics.median(ops), "s"),
            "peak_rss_mb": (_p95([mb for r in untraced for mb in r["peak_rss_mb"]]), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        untraced_wall = statistics.mean(r["wall"] for r in untraced)
        traced_wall = statistics.mean(r["wall"] for r in traced)
        metrics = {name: (value, _unit(name)) for name, value in trace.per_round(len(traced)).items()}
        metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
        meta.update(
            traced_round_walls_s=[r["wall"] for r in traced],
            self_time_per_traced_round_s=trace.self_time_total() / len(traced),
            absent=trace.absent(),
            modules_hit=trace.modules_hit(),
        )
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not any(f["kind"] == "wrong_output" for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "oracle.dense_dim_max":
        return "dim"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
