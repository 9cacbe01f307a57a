"""pipgeom benchmark: one workload, one closed-loop client, checked outputs.

    python3 bench/run.py --workload certify-deep --seed 1 --seconds 20 --trace 0

Set-up builds the workload's inputs from the seed in fresh interpreters
(several times; `setup_s` is the median).  The run then calls the public
API one op at a time, in complete passes over the inputs, until
`--seconds` have passed, and checks every output outside the timed
region.  With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics.  The last stdout line is one JSON object; the line
before it is the full record (cost variables, seed, input digest,
versions), also written under bench/.work/results/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
if not (ROOT / "src" / "pipgeom" / "__init__.py").is_file():
    raise SystemExit(f"error: no pipgeom source under {ROOT / 'src'}; run from a repository checkout")

import checks  # noqa: E402
import inputs  # noqa: E402  (puts src/ on sys.path and imports pipgeom)
import spans  # noqa: E402
from pipgeom import cli, vieta  # noqa: E402

SETUP_REPEATS = 7
WARMUP_OPS = 3

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _certify(path: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["certify", path])
    return code, out.getvalue()


def _vieta(call: str, args: tuple):
    return getattr(vieta, call)(*args)


def _ops(manifest: dict, work: Path) -> list:
    """(manifest op, zero-argument callable) per op; names resolve at call time."""
    return [
        (op, functools.partial(_vieta, op["call"], tuple(op["args"])))
        if "call" in op
        else (op, functools.partial(_certify, str(work / op["file"])))
        for op in manifest["ops"]
    ]


def _fresh_setup(workload: str, seed: int, work: Path, smoke: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(work)]
    done = subprocess.run(cmd + ["--smoke"] * smoke, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _pass(ops: list, tracer=None) -> dict:
    times, outputs = [], []
    started = time.perf_counter_ns()
    for k, (_, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter_ns()
        try:
            out = fn()
        except (Exception, SystemExit) as exc:  # an op failure is counted, not fatal
            out = exc
        times.append(time.perf_counter_ns() - t0)
        outputs.append(out)
    return {"wall_ns": time.perf_counter_ns() - started, "op_ns": times, "outputs": outputs}


def _problem(op: dict, out, work: Path) -> str:
    if isinstance(out, BaseException):
        return f"raised {out!r}"
    try:
        if "call" in op:
            return checks.check_vieta(op, out)
        code, stdout = out
        return checks.check_certify(op, code, stdout, work / op["file"])
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


def _failures(ops: list, outputs: list, first: tuple[list, list], work: Path) -> int:
    """Failed ops of one pass, each reported on stderr.

    `first` is (outputs, problems) of the run's first pass.  An output
    equal to the first pass's output for the same op shares its verdict;
    any other output is checked on its own.
    """
    failed = 0
    for (op, _), out, out0, problem0 in zip(ops, outputs, *first):
        problem = problem0 if out is out0 or out == out0 else _problem(op, out, work)
        if problem:
            failed += 1
            print(f"FAIL {op['name']}: {problem}", file=sys.stderr)
    return failed


def _cost_record(manifest: dict, work: Path, outputs: list) -> dict:
    """The input variables that drive cost, computed by the benchmark itself."""
    ops = manifest["ops"]
    if manifest["workload"] == "vieta-search":
        candidates = sum(
            spans.SIZES[f"vieta.{op['call']}"](op["args"], None)
            for op in ops
            if op["call"] in ("solution_b_sweep", "verify_general_bound")
        )
        nodes = sum(len(out) for op, out in zip(ops, outputs) if op["call"] == "jump_forest")
        return {"ops": len(ops), "candidates": candidates, "forest_nodes": nodes}
    hulls = [checks.convex_hull(checks.read_points(work / op["file"])) for op in ops]
    dens = [checks.denominator(h) for h in hulls]
    return {
        "ops": len(ops),
        "D_min": min(dens),
        "D_median": statistics.median(dens),
        "D_max": max(dens),
        "sum_D": sum(dens),
        "sum_columns_t1_to_4D": sum(
            checks.dilate_columns(min(h)[0], max(h)[0], t) for h, D in zip(hulls, dens) for t in range(1, 4 * D + 1)
        ),
        "sum_edges": sum(len(h) for h in hulls),
    }


def _environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pipgeom").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def _timing(passes: list[dict]) -> dict:
    """Per-op latency percentiles over every op run, and ops per second of pass time."""
    samples = [ns / 1e6 for p in passes for ns in p["op_ns"]]
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]
    return {
        "p50": statistics.median(samples),
        "p90": p90,
        "ops_per_s": len(samples) * 1e9 / sum(p["wall_ns"] for p in passes),
        "samples": len(samples),
        "samples_beyond_p90": sum(x > p90 for x in samples),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result object plus record."""
    work = WORK / "inputs" / f"{workload}-{seed}{'-smoke' if smoke else ''}"
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke}
    tracer = spans.Tracer()
    if trace:
        with tracer.installed():
            manifest = inputs.build(workload, seed, work, smoke)
        setup_summary = spans.summarize(tracer.take())
    else:
        setups = [_fresh_setup(workload, seed, work, smoke) for _ in range(SETUP_REPEATS)]
        if len({s["digest"] for s in setups}) != 1:
            raise RuntimeError("set-up is not deterministic: input digests differ between repeats")
        record["setup_s_samples"] = [s["setup_s"] for s in setups]
        manifest = json.loads((work / inputs.MANIFEST).read_text())
    record["input_digest"] = manifest["digest"]
    ops = _ops(manifest, work)
    for _, fn in ops[:WARMUP_OPS]:
        try:
            fn()
        except (Exception, SystemExit):
            pass  # the same op fails again, and is counted, in the timed passes

    plain, traced, cycles = [], [], []
    first, failed = None, 0
    # no pass starts unless a typical one still ends within `seconds` of passes
    while not cycles or sum(cycles) + statistics.median(cycles) <= seconds:
        cycle_start = time.perf_counter()
        plain.append(_pass(ops))
        if trace:
            with tracer.installed():
                traced.append(_pass(ops, tracer))
            traced[-1]["summary"] = spans.summarize(tracer.spans)
            tracer.op = -1
            traced[-1]["spans"] = tracer.take()
        cycles.append(time.perf_counter() - cycle_start)
        # check outside the timed region, then drop the outputs, so the
        # harness holds one pass's outputs however many passes it runs
        for p in [plain[-1], traced[-1]] if trace else [plain[-1]]:
            outputs = p.pop("outputs")
            if first is None:
                first = outputs, [_problem(op, out, work) for (op, _), out in zip(ops, outputs)]
            failed += _failures(ops, outputs, first, work)
    attempted = len(ops) * (len(plain) + len(traced))
    record.update(_cost_record(manifest, work, first[0]))
    record.update(_environment())
    record["passes"] = len(plain)

    if trace:
        metrics, repeat = spans.layer_metrics([p["summary"] for p in traced], setup_summary)
        wall = lambda ps: statistics.median(p["wall_ns"] for p in ps)  # noqa: E731
        metrics["trace.overhead_ratio"] = wall(traced) / wall(plain)
        record["traced_passes"] = len(traced)
        record["counts_repeat"] = repeat
        WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
        spans_path = WORK / "results" / f"spans-{workload}-seed{seed}.jsonl.gz"
        spans.Tracer.write(spans_path, [p["spans"] for p in traced])
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        units = {name: spans.unit(name) for name in metrics}
    else:
        timing = _timing(plain)
        metrics = {
            "setup_s": statistics.median(record["setup_s_samples"]),
            "op_ms_p50": timing.pop("p50"),
            "op_ms_p90": timing.pop("p90"),
            "ops_per_s": timing.pop("ops_per_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record.update(timing)
        if workload == "vieta-search":
            record["vieta_candidates_per_s"] = record["candidates"] / len(ops) * metrics["ops_per_s"]
        else:
            record.update(
                certify_ms_p50=metrics["op_ms_p50"], certify_ms_p90=metrics["op_ms_p90"], verdicts_per_s=metrics["ops_per_s"]
            )
        units = END_TO_END_UNITS
    record["ops_failed_ratio"] = failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "record": record,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="pipgeom benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    record["result"] = result
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=2, sort_keys=True))
    for metric, m in result["metrics"].items():
        print(f"{metric:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
