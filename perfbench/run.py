"""Benchmark of knotmorse: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload table --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Set-up is timed in fresh processes; then the workload runs pass after pass
until ``--seconds`` would be exceeded (at least one pass).  With
``--trace 1`` half the time goes to untraced passes and half to passes with
every public knotmorse function wrapped in a span (see recorder.py); the
spans are written to ``perfbench/out/`` as gzipped JSON lines.

Times of passes, items and set-up are wall times scaled to a fixed
interpreter speed, sampled while they run (see speed.py), because the speed
of a shared host's core changes by up to 1.8x within seconds.  Passes and
items keep their raw wall times in the details line, passes their speed
factor too.  The per-layer self times are raw.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
with the end-to-end metrics untraced and the per-layer metrics traced.  The
line before it holds the run's details: inputs, every pass and item, the
platform and the commit, so a run can be replayed from its output alone.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import recorder
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7

END_TO_END = (
    ("wall_s", "s"),
    ("slowest_item_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# name, unit; self_s metrics are a span's duration minus its children's
PER_LAYER = (
    ("diagram.self_s", "s"),
    ("diagram.calls", "count"),
    ("corpus.self_s", "s"),
    ("states.enumerate.self_s", "s"),
    ("states.enumerate.yielded", "count"),
    ("states.nonextendable.self_s", "s"),
    ("states.nonextendable.yielded", "count"),
    ("states.predicates.self_s", "s"),
    ("states.predicates.calls", "count"),
    ("counting.formula.self_s", "s"),
    ("counting.enumeration.self_s", "s"),
    ("moves.generate.self_s", "s"),
    ("moves.generate.candidates", "count"),
    ("moves.graph.self_s", "s"),
    ("moves.graph.nodes", "count"),
    ("moves.graph.edges", "count"),
    ("moves.edge_yield", "ratio"),
    ("moves.connectivity.self_s", "s"),
    ("complexes.facets.self_s", "s"),
    ("complexes.build.self_s", "s"),
    ("complexes.build.facets_offered", "count"),
    ("complexes.build.facets_kept", "count"),
    ("complexes.build.keep_ratio", "ratio"),
    ("complexes.faces.self_s", "s"),
    ("complexes.faces.count", "count"),
    ("complexes.homology.self_s", "s"),
    ("complexes.homology.calls", "count"),
    ("complexes.homology.faces_per_s", "1/s"),
    ("reference.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def time_setup(workload: str, seed: int) -> float:
    """Seconds one fresh process takes to import knotmorse and set up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(work, seconds: float, clock, rec=None, instrumentation=None) -> list[dict]:
    """Passes until another one of the same length would end after
    ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        if instrumentation is not None:
            instrumentation.new_phase(len(passes))
        log: list = []
        a, c0 = clock.read(), time.process_time()
        work.run_pass(log, rec, clock)
        b = clock.read()
        passes.append(
            {
                "traced": rec is not None,
                "raw_wall_s": clock.wall(a, b),
                "cpu_s": time.process_time() - c0,
                "span": (a, b),
                "items": log,
            }
        )
        if time.perf_counter() - start + (b[0] - a[0]) > seconds:
            return passes


def scale(passes: list[dict], clock) -> None:
    """Turn the raw times of passes and items into scaled ``wall_s`` and
    ``seconds`` (see speed.py), once every speed sample is in."""
    for p in passes:
        p["speed"] = clock.speed(*p.pop("span"))
        p["wall_s"] = p["raw_wall_s"] * p["speed"]
        for item in p["items"]:
            item["seconds"] = item["raw_s"] * clock.speed(*item.pop("span"))


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "slowest_item_s": statistics.median(
            max(i["seconds"] for i in p["items"]) for p in passes
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(rec: recorder.Recorder, traced: list[dict], untraced: list[dict]) -> dict:
    """One traced set-up plus the median traced pass, layer by layer."""
    phases = ["setup"] + list(range(len(traced)))
    selfs = {phase: rec.self_times(phase) for phase in phases}

    def value(key: str) -> float:
        def in_phase(phase) -> float:
            if key.endswith(".self_s"):
                return selfs[phase].get(key[: -len(".self_s")], 0.0)
            return rec.counts.get(phase, {}).get(key, 0)

        return in_phase("setup") + statistics.median(in_phase(p) for p in phases[1:])

    out = {name: value(name) for name, _ in PER_LAYER}
    out["moves.edge_yield"] = ratio(value("moves.graph.edges"), value("moves.graph.candidates"))
    out["complexes.build.keep_ratio"] = ratio(
        value("complexes.build.facets_kept"), value("complexes.build.facets_offered")
    )
    out["complexes.homology.faces_per_s"] = ratio(
        value("complexes.homology.faces"), out["complexes.homology.self_s"]
    )
    out["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        km = workloads.import_package(ROOT)
        setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    except (workloads.MissingProgram, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or ""
        print("benchmark cannot run: %s %s" % (exc, detail.strip()), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = workload(km, args.seed)

    rec = None
    clock = speed.SpeedClock()
    if args.trace:
        with clock:
            untraced = run_passes(work, args.seconds / 2, clock)
            rec = recorder.Recorder()
            instrumentation = recorder.Instrumentation(rec)
            cache_clear = getattr(km.corpus.load_corpus, "cache_clear", None)
            if cache_clear is not None:
                cache_clear()
            instrumentation.install()
            try:
                instrumentation.new_phase("setup")
                work = workload(km, args.seed)
                traced = run_passes(work, args.seconds / 2, clock, rec, instrumentation)
            finally:
                instrumentation.uninstall()
        passes = untraced + traced
        scale(passes, clock)
        metrics = per_layer(rec, traced, untraced)
        units = dict(PER_LAYER)
    else:
        with clock:
            passes = run_passes(work, args.seconds, clock)
        scale(passes, clock)
        metrics = end_to_end(passes, setups)
        units = dict(END_TO_END)

    items = [i for p in passes for i in p["items"]]
    failed = sum(not i["ok"] for i in items)
    detail = {
        "workload": args.workload,
        "why": " ".join(workload.__doc__.split("Why:")[1].split()),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "inputs": work.inputs,
        "setup_s_samples": setups,
        "fail_rate": failed / len(items),
        "passes": passes,
        "metrics": metrics,
    }
    if rec is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / ("spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
        with gzip.open(spans, "wt", compresslevel=1) as fh:
            rec.write(fh)
        detail["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(items),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
