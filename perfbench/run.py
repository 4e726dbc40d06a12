"""Cold-start benchmark of the monomial package.

    python3 perfbench/run.py --workload {lattice,ring,tame,campaign} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every pass of a workload runs in a fresh
interpreter (perfbench/worker.py), and each block of items (one group) in a
child forked from that interpreter after set-up, so every cache of the
package starts empty for each block, as it does for each CLI invocation.
Passes, blocks and items run one after another: a closed loop with one
caller, one running process and one thread.

All times are in reference seconds: each item's measured time is rescaled
by a host speed sample taken next to it (perfbench/hostspeed.py), so that
the shared host's slow spells do not read as a slow program.  The measured
times are printed beside them, marked raw.

--trace 0 repeats untraced passes until S seconds have been measured and at
least MIN_ITEMS items have run (so ten lie beyond the 90th percentile), then
prints the end-to-end metrics: wall_s (median pass wall time), item_p50_ms
and item_p90_ms (over all items), setup_s (median of at least MIN_SETUPS
set-ups: interpreter start, imports and catalog build, rescaled by the mean
of a sample the parent takes just before it and one the worker takes just
after it) and peak_rss_mb (median of the passes' ru_maxrss).

--trace 1 runs one untraced and one traced pass, then two counting passes
at once (counts do not depend on timing), and prints the per-layer metrics:
span times and sizes (raw seconds), cache statistics, exact call counts
(which must repeat between the two counting passes), host.calib_s (median
host speed sample) and trace.overhead_frac (traced wall over untraced wall,
minus one).

Every item's verdict and digest is checked against perfbench/expected.json;
failed/attempted in the last line is failed_frac.  The last line of standard
output is the JSON result; the lines before it name every metric with its
unit and record the host.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ITEMS = 100
MIN_SETUPS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s
WORKLOADS = ("lattice", "ring", "tame", "campaign")
# One thread per process; a fixed hash seed so counts repeat exactly.
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class PassFailed(RuntimeError):
    pass


def _start(root: str, workload: str, seed: int, mode: str):
    """Start one pass in its own session, so that it and the block children
    it forks can be stopped together."""
    pre_sample = hostspeed.warm_sample()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), root, workload,
           str(seed), mode, str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env={**os.environ, **WORKER_ENV}, cwd=root,
                            start_new_session=True)
    return proc, pre_sample


def _stop(proc: subprocess.Popen) -> None:
    """Kill a pass and every process of its session, and wait for them."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _finish(proc: subprocess.Popen, pre_sample: float, workload: str, mode: str,
            deadline: float) -> dict:
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        _stop(proc)
        raise PassFailed(f"{mode} pass of {workload} exceeded the run limit") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                         f"{err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_ref_s"] = (result["setup_s"] * hostspeed.REF_S * 2
                             / (pre_sample + result["setup_sample_s"]))
    result.setdefault("samples_s", []).insert(0, pre_sample)
    return result


def _run_pass(root: str, workload: str, seed: int, mode: str, deadline: float) -> dict:
    proc, pre_sample = _start(root, workload, seed, mode)
    try:
        return _finish(proc, pre_sample, workload, mode, deadline)
    finally:
        if proc.poll() is None:
            _stop(proc)


def _percentile_ms(times: list[float], pct: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[pct - 1] * 1000


def _plain(root, workload, seed, seconds, deadline):
    passes = []
    start = time.monotonic()
    while True:
        passes.append(_run_pass(root, workload, seed, "plain", deadline))
        items = sum(len(p["item_s"]) for p in passes)
        elapsed = time.monotonic() - start
        if elapsed >= seconds and items >= MIN_ITEMS:
            break
        if time.monotonic() + 1.5 * elapsed / len(passes) > deadline:
            break
    setups = [(p["setup_ref_s"], p["setup_s"]) for p in passes]
    while len(setups) < MIN_SETUPS:
        setup = _run_pass(root, workload, seed, "setup", deadline)
        setups.append((setup["setup_ref_s"], setup["setup_s"]))
    times = [t for p in passes for t in p["item_ref_s"]]
    raw_times = [t for p in passes for t in p["item_s"]]
    metrics = {
        "wall_s": (statistics.median(p["wall_ref_s"] for p in passes), "s"),
        "item_p50_ms": (_percentile_ms(times, 50), "ms"),
        "item_p90_ms": (_percentile_ms(times, 90), "ms"),
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = [f"passes {len(passes)} items {len(times)} setups {len(setups)}",
             f"raw wall_s {statistics.median(p['wall_s'] for p in passes):.6g} s "
             f"item_p50_ms {_percentile_ms(raw_times, 50):.6g} ms "
             f"item_p90_ms {_percentile_ms(raw_times, 90):.6g} ms "
             f"setup_s {statistics.median(s[1] for s in setups):.6g} s"]
    return passes, metrics, notes


def _traced(root, workload, seed, deadline):
    plain = _run_pass(root, workload, seed, "plain", deadline)
    traced = _run_pass(root, workload, seed, "trace", deadline)
    # the two counting passes are not timed, so they run at once
    started = [_start(root, workload, seed, "count") for _ in range(2)]
    try:
        counts = [_finish(proc, pre, workload, "count", deadline) for proc, pre in started]
    finally:
        for proc, _ in started:
            if proc.poll() is None:
                _stop(proc)
    passes = [plain, traced] + counts
    layers = {**traced["layers"], **counts[0]["counts"]}
    layers["trace.overhead_frac"] = traced["wall_ref_s"] / plain["wall_ref_s"] - 1
    coverage = traced["top_level_s"] / traced["wall_s"]
    problems = []
    if counts[0]["counts"] != counts[1]["counts"]:
        diff = {k: (v, counts[1]["counts"][k]) for k, v in counts[0]["counts"].items()
                if counts[1]["counts"][k] != v}
        problems.append(f"counts differ between two same-seed passes: {diff}")
    if not 0.98 <= coverage <= 1.0:
        problems.append(f"top-level spans cover {coverage:.4f} of the traced wall")
    walls = " ".join(f"{p['wall_s']:.3f}" for p in passes)
    notes = [f"pass walls (plain traced count count) {walls} s",
             f"trace coverage {coverage:.4f} spans written to "
             f".perfbench/spans-{workload}-{seed}.jsonl"]
    return passes, layers, notes, problems


def _per_layer(spec: dict, layers: dict) -> dict:
    metrics = {}
    for entry in spec["per_layer"]:
        if entry["name"] not in layers:
            raise SystemExit(f"BENCHMARK.json names unknown metric {entry['name']}")
        metrics[entry["name"]] = (layers[entry["name"]], entry["unit"])
    return metrics


def _host(root: str, seed: int, calib: list[float]) -> dict:
    src = os.path.join(root, "src", "monomial")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as handle:
            ref = handle.read().strip()
        ref_path = os.path.join(root, ".git", ref[5:]) if ref.startswith("ref: ") else None
        if ref_path is None:
            commit = ref
        elif os.path.exists(ref_path):
            with open(ref_path) as handle:
                commit = handle.read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "sympy": importlib.metadata.version("sympy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "calib_s": {"median": statistics.median(calib), "min": min(calib),
                    "max": max(calib), "samples": len(calib), "ref": hostspeed.REF_S},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(root, "src", "monomial", "__init__.py")):
        print("perfbench: run from the repository root (no src/monomial here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    # byte-compile once, so no set-up pays for compiling the package
    compileall.compile_dir(os.path.join(root, "src", "monomial"), quiet=1)
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)

    calib = [hostspeed.warm_sample()]
    try:
        if args.trace:
            passes, layers, notes, problems = _traced(root, args.workload, args.seed,
                                                      deadline)
        else:
            passes, metrics, notes = _plain(root, args.workload, args.seed,
                                            args.seconds, deadline)
            problems = []
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    calib += [x for p in passes for x in p["samples_s"]] + [hostspeed.sample()]
    if args.trace:
        layers["host.calib_s"] = statistics.median(calib)
        metrics = _per_layer(spec, layers)

    attempted = sum(len(p["item_s"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        problems += p["errors"] + [f"wrong verdict or digest: {k}" for k in p["failed"][:5]]
    print("host " + json.dumps(_host(root, args.seed, calib)))
    for note in notes:
        print(note)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload} {name} {shown} {unit}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
