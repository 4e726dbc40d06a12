"""One cold pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py <root> <workload> <seed> <mode> <spawn_ns>

`mode` is `setup` (set up and stop), `plain` (time every item), `trace`
(spans on the layer functions) or `count` (exact call counters).  Set-up is
interpreter start (measured from `spawn_ns`, a CLOCK_MONOTONIC reading the
parent took just before starting this process), importing every `monomial`
module and building the catalog.

Each block of items (one group; one residue field in `tame`) then runs in a
child forked from the set-up process, one child at a time.  A block thus
starts from the same state whatever ran before it, as a fresh CLI invocation
would: every cache of the package is empty (lru caches, cached properties and
any module-level dict alike) and no memory is left over from other blocks.
Forking is not timed; it stands in for the start of that invocation.

Host speed samples (perfbench/hostspeed.py) are taken right after set-up and
between items, outside every timed region, and turn each item's time into
reference seconds.  The last line of standard output is one JSON object with
the pass's results.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import hostspeed
import probe

SPAN_FILE = "spans-{workload}-{seed}.jsonl"


def _setup(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import monomial

    for name in probe.MODULES:
        importlib.import_module(f"monomial.{name}")
    importlib.import_module("monomial.catalog").catalog_names()
    src = os.path.realpath(os.path.join(root, "src", "monomial"))
    if os.path.dirname(os.path.realpath(monomial.__file__)) != src:
        raise SystemExit(f"monomial imported from {monomial.__file__}, not {src}")


def _in_child(fn) -> dict:
    """fn() run in a forked child, whose JSON result comes back by a pipe.
    The parent waits for the child to end before it returns."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise SystemExit(f"a block's child process failed (wait status {status})")
    return json.loads(data)


def _run_block(items, caches, base, tracer, counter) -> dict:
    """Time the items of one block, in the child that runs it."""
    if tracer is not None:
        tracer.spans.clear()  # the parent's copy holds the earlier blocks' spans
    # a full collection writes to every tracked object, so the child copies
    # most shared pages here, untimed, and not in its first items
    gc.collect()
    samples = [hostspeed.warm_sample()]
    times, segment, failed, errors = [], [], [], []
    clock = time.perf_counter
    untimed = since_sample = 0.0
    start = clock()
    for item in items:
        t0 = clock()
        try:
            if tracer is not None:
                tracer.item = item.key
                ok, digest = tracer.call("item", item.run)
            else:
                ok, digest = item.run()
            good = ok and json.loads(json.dumps(digest)) == item.want
        except Exception as exc:  # an item that raises is a failed item
            good = False
            errors.append(f"{item.key}: {type(exc).__name__}: {exc}")
        times.append(clock() - t0)
        segment.append(len(samples) - 1)
        if not good:
            failed.append(item.key)
        since_sample += times[-1]
        if since_sample >= hostspeed.EVERY_S:
            # a long item gets the median of a few samples, one per EVERY_S
            # of its time up to MAX_SAMPLES, as its end point
            t0 = clock()
            n = min(int(since_sample / hostspeed.EVERY_S), hostspeed.MAX_SAMPLES)
            samples.append(statistics.median(hostspeed.sample() for _ in range(n)))
            untimed += clock() - t0
            since_sample = 0.0
    wall = clock() - start - untimed
    samples.append(hostspeed.sample())
    item_ref = hostspeed.rescale(times, segment, samples)
    return {
        "wall_s": wall,
        "wall_ref_s": wall * sum(item_ref) / sum(times),
        "item_s": times,
        "item_ref_s": item_ref,
        "samples_s": samples,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches": caches.stats(base),
        "spans": tracer.spans if tracer is not None else [],
        "counts": counter.counts if counter is not None else {},
    }


def main(argv: list[str]) -> None:
    root, workload, seed, mode, spawn_ns = argv
    seed, spawn_ns = int(seed), int(spawn_ns)
    _setup(root)
    result = {"setup_s": (time.monotonic_ns() - spawn_ns) / 1e9,
              "setup_sample_s": hostspeed.warm_sample()}
    if mode == "setup":
        print(json.dumps(result))
        return

    import workloads

    # a directory of this pass's own: two counting passes run at once
    workdir = tempfile.mkdtemp(prefix=f"{mode}-", dir=os.path.join(root, ".perfbench"))
    with open(os.path.join(os.path.dirname(__file__), "expected.json")) as handle:
        expected = json.load(handle)[workload]
    items = workloads.BUILDERS[workload](seed, expected, workdir)
    blocks: dict[str, list] = {}
    for item in items:
        blocks.setdefault(item.block, []).append(item)

    caches = probe.Caches()
    warm = caches.warm()
    if warm:
        raise SystemExit(f"cold-start guard: caches hold entries after set-up: {warm}")
    base = caches.stats()
    tracer = counter = None
    if mode == "trace":
        tracer = probe.Tracer()
        tracer.install()
    elif mode == "count":
        counter = probe.Counter()
        counter.install()
    gc.collect()

    passed = {"wall_s": 0.0, "wall_ref_s": 0.0, "item_s": [], "item_ref_s": [],
              "samples_s": [], "failed": [], "errors": [], "peak_rss_mb": 0.0}
    counts: dict = {}
    for block in blocks.values():
        out = _in_child(lambda b=block: _run_block(b, caches, base, tracer, counter))
        for key in ("wall_s", "wall_ref_s"):
            passed[key] += out[key]
        for key in ("item_s", "item_ref_s", "samples_s", "failed", "errors"):
            passed[key] += out[key]
        passed["peak_rss_mb"] = max(passed["peak_rss_mb"], out["peak_rss_mb"])
        caches.add(out["caches"])
        if tracer is not None:
            tracer.extend(out["spans"])
        for name, n in out["counts"].items():
            counts[name] = counts.get(name, 0) + n

    result.update(passed, errors=passed["errors"][:5])
    if tracer is not None:
        result["layers"] = {**tracer.metrics(), **caches.metrics()}
        result["top_level_s"] = tracer.top_level_s()
        tracer.write(os.path.join(root, ".perfbench",
                                  SPAN_FILE.format(workload=workload, seed=seed)))
    if counter is not None:
        result["counts"] = counts
    shutil.rmtree(workdir)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
