"""End-to-end benchmark of the lrnn command-line program.

    python3 bench/run.py --workload mnist_shallow --seed 0 --seconds 30 --trace 0

Run from anywhere; paths are resolved against the repository root (the
parent of this directory), and the program is run from ``src/``.

``--trace 0`` times the user commands, each in a fresh process, one at a
time: ``lrnn train``, a set-up probe, ``lrnn eval`` and ``lrnn simulate``,
repeated for ``--seconds`` after one untimed warm-up round.  ``--trace 1``
instead replays the same commands in this process through lrnn's public
functions (see ``replay.py``) and reports per-layer times and counts.

Inputs are generated from ``--seed`` into ``.bench_work/`` and removed at
the end.  Every output is checked; a full record (samples, quartiles,
environment, input checksums, failures) goes to
``.bench_results/<workload>-seed<seed>-trace<t>.json`` and the last line
of standard output is the summary JSON object.  Exit code 0 means every
check passed, 1 that some failed, 2 that the program or its settings are
missing.  ``bench/compare.py`` compares two sets of result files.
"""

from __future__ import annotations

import os

#: BLAS and OpenMP pools are pinned to one thread, here and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

#: A child still running after this many seconds is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0


@dataclass
class Child:
    code: int
    wall_s: float
    max_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Inputs:
    indexes: list[int]  # simulated rows; timed rounds simulate the first
    record: dict


@dataclass
class Run:
    """Attempted and failed operations plus the samples behind each metric."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    max_rss_mb: float = 0.0  # of the children of the current round

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def command(self, argv: list[str], cwd: Path, what: str) -> Child | None:
        """Run one child process; a nonzero exit is a failure and returns None."""
        child = run_child(argv, cwd)
        self.max_rss_mb = max(self.max_rss_mb, child.max_rss_mb)
        tail = child.stderr.strip().splitlines()[-3:]
        if self.check(child.code == 0, f"{what} exited {child.code}: {' | '.join(tail)}"):
            return child
        return None


def run_child(argv: list[str], cwd: Path) -> Child:
    """Run ``argv`` to completion; wall time and max RSS are the child's alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "child.out", "w+") as out, open(cwd / "child.err", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read(), err.read())


def lrnn(*args: str) -> list[str]:
    return [sys.executable, "-m", "lrnn", *args]


def describe(samples: list[float]) -> dict:
    """Median, quartiles and count; the samples stay in the order they were taken."""
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def sha256(path: Path) -> str | None:
    return inputs.sha256(path) if path.is_file() else None


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    """Write the workload's dataset and pick the simulated instance, all from ``seed``."""
    rng = np.random.default_rng(seed)
    path = work / wl.data_file
    if wl.fmt == "idx":
        x = inputs.mnist_like(rng, wl.rows)
        inputs.write_idx(path, x)
    else:
        x = inputs.table(rng, wl.rows, wl.train.dims[0])
        inputs.write_csv(path, x)
    # Simulated rows have about the median row sum: simulation cost and
    # accuracy grow with the input rates, so typical rows keep them
    # comparable from seed to seed.
    order = np.argsort(x.sum(axis=1), kind="stable")
    mid = x.shape[0] // 2
    indexes = [int(i) for i in order[mid : mid + wl.sim_instances]]
    record = {
        "file": wl.data_file,
        "shape": list(x.shape),
        "blank_rows": int(np.count_nonzero(~x.any(axis=1))),
        "bytes": path.stat().st_size,
        "sha256": inputs.sha256(path),
        "sim_indexes": indexes,
    }
    return Inputs(indexes, record)


def _parse(pattern: str, text: str) -> str | None:
    m = re.search(pattern, text)
    return m.group(1) if m else None


def sim_mean_abs_diff(path: Path) -> tuple[float, int]:
    """Mean of the ``abs_diff`` column of a ``lrnn simulate --out`` CSV, and its row count."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        col = header.index("abs_diff")
        diffs = [float(line.split(",")[col]) for line in f if line.strip()]
    return (sum(diffs) / len(diffs) if diffs else float("nan")), len(diffs)


def play_round(wl: Workload, seed: int, inp: Inputs, work: Path, run: Run,
               warm: dict | None, probe: bool = True) -> dict:
    """One train/probe/eval/simulate round; the warm-up round (``warm`` None) keeps no sample.

    Eval, probe and simulate use the warm-up round's model, so the model
    is produced once, outside the timed rounds.  Returns the checksums
    and values of the round's outputs.
    """
    timed = warm is not None
    sfx = "" if timed else "_warm"
    data = ["--data", wl.data_file, "--format", wl.fmt]
    model = "model_warm.lrnn"
    out: dict = {}
    run.max_rss_mb = 0.0

    train = lrnn("train", *data, *wl.train.argv(), "--seed", str(seed),
                 "--out", f"model{sfx}.lrnn", "--curve", f"curve{sfx}.csv")
    child = run.command(train, work, "lrnn train")
    if child:
        out["final_error"] = _parse(r"final full-dataset error: (\S+)", child.stdout)
        run.check(out["final_error"] is not None, "lrnn train printed no final error")
        iters = _parse(r"iterations: (\d+)", child.stdout)
        if run.check(iters == str(wl.train.iters),
                     f"lrnn train ran {iters} iterations, expected {wl.train.iters}") and timed:
            run.samples["train_rows_per_s"].append(wl.train.iters * wl.train.batch / child.wall_s)
        out["model"] = sha256(work / f"model{sfx}.lrnn")
        out["curve"] = sha256(work / f"curve{sfx}.csv")
    if not (work / model).is_file():
        return out

    if probe:
        expect = f"{wl.rows} {wl.train.dims[0]} {wl.neurons}"
        argv = [sys.executable, str(BENCH / "probe.py"), wl.data_file, wl.fmt, model,
                str(inp.indexes[0])]
        child = run.command(argv, work, "set-up probe")
        if child and run.check(child.stdout.strip() == expect,
                               f"probe printed {child.stdout.strip()!r}, expected {expect!r}"):
            if timed:
                run.samples["setup_s"].append(child.wall_s)

    child = run.command(lrnn("eval", *data, "--model", model), work, "lrnn eval")
    if child:
        got = _parse(r"reconstruction error: (\S+)", child.stdout)
        want = (warm or out).get("final_error")
        run.check(got is not None and got == want,
                  f"lrnn eval printed {got}, lrnn train printed {want}")
        if timed:
            run.samples["eval_rows_per_s"].append(wl.rows / child.wall_s)

    q_diffs = []
    for k, index in enumerate(inp.indexes[:1] if timed else inp.indexes):
        sim = f"sim{sfx}{k or ''}.csv"
        simulate = lrnn("simulate", *data, "--model", model, "--index", str(index),
                        "--events", str(wl.sim_events), "--seed", str(seed), "--out", sim)
        child = run.command(simulate, work, "lrnn simulate")
        if not child:
            continue
        out.setdefault("sim", sha256(work / sim))
        q_diff, neurons = sim_mean_abs_diff(work / sim)
        q_diffs.append(q_diff)
        run.check(neurons == wl.neurons, f"{sim} has {neurons} rows, expected {wl.neurons}")
        if timed:
            run.samples["sim_events_per_s"].append(wl.sim_events / child.wall_s)
    if len(q_diffs) == len(inp.indexes):
        out["sim_q_mean_abs_diff"] = statistics.fmean(q_diffs)

    if timed:
        for key in ("model", "curve", "sim"):
            run.check(out.get(key) is not None and out.get(key) == warm.get(key),
                      f"{key} file differs from the warm-up round's with the same seed")
        run.samples["peak_rss_mb"].append(run.max_rss_mb)
    return out


def timed_run(wl: Workload, seed: int, seconds: int, work: Path, run: Run) -> dict:
    """End-to-end metrics: an untimed warm-up round, then rounds for ``seconds``."""
    import lrnn as lrnn_pkg

    inp = make_inputs(wl, seed, work)
    warm = play_round(wl, seed, inp, work, run, None)
    info = {"inputs": inp.record, "rounds": 0}
    if None in (warm.get("final_error"), warm.get("model"), warm.get("sim_q_mean_abs_diff")):
        return info
    try:
        lrnn_pkg.load_model(work / "model_warm.lrnn")
        reason = ""
    except (OSError, ValueError) as e:
        reason = f": {e}"
    run.check(not reason, f"trained model does not reload through load_model{reason}")
    run.samples["final_error"].append(float(warm["final_error"]))
    q_diff = warm["sim_q_mean_abs_diff"]
    run.samples["sim_q_mean_abs_diff"].append(q_diff)
    run.check(q_diff <= wl.q_bound,
              f"sim_q_mean_abs_diff {q_diff:.4g} above the stated bound {wl.q_bound}")

    # setup_s is probed every other round: it is the cheapest figure to
    # steady, so the time goes to the throughput samples instead.
    start = time.perf_counter()
    while info["rounds"] == 0 or time.perf_counter() - start < seconds:
        play_round(wl, seed, inp, work, run, warm, probe=info["rounds"] % 2 == 0)
        info["rounds"] += 1
    info["final_error_text"] = warm["final_error"]
    info["q_bound"] = wl.q_bound
    return info


def trace_run(wl: Workload, seed: int, seconds: int, work: Path, run: Run) -> dict:
    """Per-layer metrics: replays alternating untraced and traced for ``seconds``.

    One CLI train and simulate run first; the replay's final error must
    match the CLI's within ``replay.REPLAY_RTOL``, and the replayed eval
    and simulation use the CLI's model file.
    """
    import replay

    inp = make_inputs(wl, seed, work)
    info: dict = {"inputs": inp.record, "replays": 0, "rtol": replay.REPLAY_RTOL}
    data = ["--data", wl.data_file, "--format", wl.fmt]
    child = run.command(lrnn("train", *data, *wl.train.argv(), "--seed", str(seed),
                             "--out", "model.lrnn"), work, "lrnn train")
    if not child:
        return info
    cli_error = _parse(r"final full-dataset error: (\S+)", child.stdout)
    if not run.check(cli_error is not None, "lrnn train printed no final error"):
        return info
    cli_error = float(cli_error)
    simulate = lrnn("simulate", *data, "--model", "model.lrnn", "--index", str(inp.indexes[0]),
                    "--events", str(wl.sim_events), "--seed", str(seed), "--out", "sim.csv")
    if not run.command(simulate, work, "lrnn simulate"):
        return info
    cli_q, _ = sim_mean_abs_diff(work / "sim.csv")
    info.update(cli_final_error=cli_error, cli_sim_q_mean_abs_diff=cli_q)

    path, model = work / wl.data_file, work / "model.lrnn"
    peak_alloc = replay.minibatch_peak_alloc_mb(wl.train, seed, path, wl.fmt)
    walls: dict[bool, list[float]] = {False: [], True: []}
    first = last = None
    start = time.perf_counter()
    reps = -1  # replay -1 warms up and is checked, but not measured
    while reps < 2 or reps % 2 or time.perf_counter() - start < seconds:
        # Pairs alternate which side runs first: off/on, on/off, ...
        traced = reps >= 0 and (reps % 2 == 1) != ((reps // 2) % 2 == 1)
        tr = replay.Tracer(traced)
        t0 = time.perf_counter()
        with tr:
            error, data_bytes, model_bytes, counts = replay.replay_train(
                tr, wl.train, seed, path, wl.fmt, work / "model_replay.lrnn")
            eval_error = replay.replay_eval(tr, model, path, wl.fmt)
            q_diff, observations = replay.replay_simulate(
                tr, model, path, wl.fmt, inp.indexes[0], wl.sim_events, seed)
        wall = time.perf_counter() - t0
        outcome = (error, eval_error, q_diff, observations, counts)
        if first is None:
            first = outcome
            run.check(abs(error - cli_error) <= replay.REPLAY_RTOL * abs(cli_error),
                      f"replayed final error {error!r} vs CLI {cli_error!r}")
            run.check(eval_error == cli_error,
                      f"replayed eval error {eval_error!r} vs CLI train {cli_error!r}")
            run.check(abs(q_diff - cli_q) <= 1e-12 * cli_q,
                      f"replayed sim_q_mean_abs_diff {q_diff!r} vs CLI {cli_q!r}")
            info["replay_final_error"] = error
        else:
            run.check(outcome == first, "replay outcome or counts differ between repeats")
            walls[traced].append(wall)
        reps += 1
        if not traced:
            continue
        last = tr
        summary = tr.summary()
        layer = {f"{name}_s": e["total_s"] for name, e in summary.items()}
        layer["cli.self_s"] = sum(e["self_s"] for n, e in summary.items() if n.startswith("cli."))
        layer.update({
            "data.load_bytes": data_bytes,
            "data.minibatch_peak_alloc_mb": peak_alloc,
            "training.pair_updates": counts.pair_updates,
            "training.rows_projected": counts.rows_projected,
            "training.rows_projected_ratio": counts.rows_projected / counts.rows_checked,
            "training.units_rescaled": counts.units_rescaled,
            "training.units_rescaled_ratio": counts.units_rescaled / counts.units_checked,
            "training.dead_units": counts.dead_units,
            "model_io.bytes": model_bytes,
            "simulation.events": wl.sim_events,
            "simulation.observations": observations,
            "trace.spans": len(tr.spans),
        })
        for name, value in layer.items():
            run.samples[name].append(value)

    run.samples["trace.untraced_s"] = walls[False]
    run.samples["trace.traced_s"] = walls[True]
    # Both replays of a pair ran back to back, so their difference is
    # the least disturbed by the machine's drift.
    run.samples["trace.overhead_s"] = [t - u for t, u in zip(walls[True], walls[False])]
    info["replays"] = reps
    info["spans"] = last.summary()
    RESULTS.mkdir(exist_ok=True)
    t_origin = last.spans[0][1]
    spans = [{"name": n, "start": s - t_origin, "end": e - t_origin, "parent": p}
             for n, s, e, p in last.spans]
    spans_path = RESULTS / f"{wl.name}-seed{seed}-trace1-spans.json"
    spans_path.write_text(json.dumps(spans))
    info["spans_file"] = str(spans_path.relative_to(ROOT))
    return info


def environment() -> dict:
    """Thread pinning, machine, interpreter and library versions of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=False)
            commit = out.stdout.strip() or None
        except OSError:
            pass
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced in-process replay with per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "lrnn" / "__init__.py").is_file():
        print(f"error: no lrnn package under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=WORK))
    run = Run()
    try:
        body = trace_run if args.trace else timed_run
        info = body(wl, args.seed, args.seconds, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        samples = run.samples.get(m["name"])
        if not run.check(bool(samples), f"no samples for metric {m['name']}"):
            continue
        stats = describe(samples)
        value = max(samples) if m["name"] == "peak_rss_mb" else stats["median"]
        metrics[m["name"]] = {"value": value, **m, **stats}
    correct = run.failed == 0
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        "environment": environment(),
        **info,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for failure in run.failures:
        print(f"FAILED: {failure}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:<14.6g} {m['unit']:8s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
    print(f"fail_ratio {record['fail_ratio']:.3g} ({run.failed}/{run.attempted}); "
          f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
