"""Benchmark of the subcover CLI: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-dense --seed 1 --seconds 36 --trace 0

The seed fixes the command order within a pass and the read commands'
documents, which are generated and checked before timing starts.  One
client sends the commands in a closed loop to one fresh single-threaded
worker process (see worker.py), pass after pass, while the next pass still
fits in --seconds; every command's output is checked between passes.  With
--trace 0 the result carries the end-to-end metrics; with --trace 1
untraced and traced passes alternate and the result carries the per-layer
metrics of the traced ones (see spans.py).  The last line of stdout is the
JSON result; the lines before it repeat every metric by name and unit for a
reader.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh processes that time set-up alone before each pass, besides the
# worker's own set-up
PROBES_PER_PASS = 2

# Printed for a reader but left out of the result line: every metric there
# must exist on every workload and never read 0, and oracle-search has no
# read commands while fail_ratio is 0 when all is well.
SUMMARY_ONLY = ("read_s", "fail_ratio")


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SUBCOVER_MAX_Q_POW", None)  # the package's default size guard
    env["PYTHONHASHSEED"] = "0"  # the same string hashing in every run
    return env


def _worker_argv(bases) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), str(SRC),
            ",".join(f"{p}.{m}" for p, m in bases)]


def setup_probe(bases) -> float:
    done = subprocess.run(_worker_argv(bases) + ["--setup-only"],
                          env=_worker_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


class Worker:
    """The worker process, spoken to in JSON lines; always reaped."""

    def __init__(self, bases):
        self.proc = subprocess.Popen(_worker_argv(bases), env=_worker_env(),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def send(self, doc) -> None:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.send({"stop": True})
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def prepare(workload: str, seed: int, tmp: Path):
    """The workload's commands in seeded order, with the argv of each and
    its read documents written under ``tmp``."""
    rng = random.Random(seed)
    commands = list(workloads.WORKLOADS[workload])
    rng.shuffle(commands)
    argvs = []
    for i, cmd in enumerate(commands):
        path = None
        if cmd.read:
            path = tmp / f"doc{i}.json"
            doc = workloads.make_document(cmd, rng)
            path.write_text(json.dumps(doc, separators=(",", ":")))
        argvs.append(cmd.argv(str(path) if path else None))
    return commands, argvs


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        commands, argvs = prepare(workload, seed, Path(tmp))
        bases = workloads.bases(commands)
        worker = Worker(bases)
        try:
            setups = [worker.recv()["setup_s"]]
            spans_path = OUT / f"spans-{workload}.jsonl"
            worker.send({"commands": argvs,
                         "spans_path": str(spans_path) if trace else None})
            passes, failures = [], []
            start = perf_counter()
            longest = 0.0
            while True:
                t0 = perf_counter()
                # set-up probes spread over the run sample more of the
                # machine's slow and quiet spells than a burst at the start
                setups += [setup_probe(bases) for _ in range(PROBES_PER_PASS)]
                traced = trace and len(passes) % 2 == 1
                worker.send({"trace": traced})
                reply = worker.recv()
                reply["traced"] = traced
                reply["wall"], reply["cpu"] = [], []
                for cmd, (code, wall, cpu, out, err) in zip(
                        commands, reply.pop("results")):
                    why = workloads.check_output(cmd, code, out)
                    if why:
                        failures.append(f"{cmd.label}: {why} {err.strip()}")
                    reply["wall"].append(wall)
                    reply["cpu"].append(cpu)
                passes.append(reply)
                longest = max(longest, perf_counter() - t0)
                if (len(passes) >= (2 if trace else 1)
                        and perf_counter() - start + longest > seconds):
                    break
        finally:
            worker.close()
    return {"commands": commands, "setups": setups, "passes": passes,
            "failures": failures, "attempted": len(passes) * len(commands)}


def fastest(passes, commands, key: str, read=None) -> float:
    """Sum over the commands (only reads or only writes, if ``read`` is
    given) of each one's fastest ``key`` time across the passes."""
    return sum(min(p[key][i] for p in passes)
               for i, cmd in enumerate(commands)
               if read is None or cmd.read == read)


def summarize(run: dict, trace: bool) -> dict:
    """Metric name -> (value, unit).  Interference from other work on the
    machine only ever slows a command down, so each command counts with its
    fastest time across the run's untraced passes; set-up is the median of
    its samples."""
    commands = run["commands"]
    plain = [p for p in run["passes"] if not p["traced"]]
    if not trace:
        metrics = {
            "setup_s": (statistics.median(run["setups"]), "s"),
            "run_s": (fastest(plain, commands, "wall"), "s"),
            "write_s": (fastest(plain, commands, "wall", read=False), "s"),
            "cpu_s": (fastest(plain, commands, "cpu"), "s"),
            "peak_rss_mb": (max(p["rss_kb"] for p in plain) / 1024, "MB"),
            "fail_ratio": (len(run["failures"]) / run["attempted"], "ratio"),
        }
        if any(cmd.read for cmd in commands):
            metrics["read_s"] = (fastest(plain, commands, "wall", read=True), "s")
    else:
        traced = [p for p in run["passes"] if p["traced"]]
        units = dict(spans.LAYER_METRICS)
        metrics = {name: (statistics.median(p["layers"][name] for p in traced),
                          units[name])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead"] = (fastest(traced, commands, "wall")
                                     / fastest(plain, commands, "wall"), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subcover" / "__init__.py").is_file():
        print(f"error: no subcover package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = summarize(run, bool(args.trace))
    for line in run["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    plain = sum(not p["traced"] for p in run["passes"])
    print(f"# {args.workload} seed {args.seed}: {plain} untraced and "
          f"{len(run['passes']) - plain} traced passes, "
          f"{run['attempted']} commands, {len(run['failures'])} failed")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<36} {value:.6g} {unit}")
    result = {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name not in SUMMARY_ONLY},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
