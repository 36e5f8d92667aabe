"""eprsim benchmark: README commands as fresh processes, timed and checked.

    python3 perfbench/run.py --workload {sweep,wedge,stream,quick} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree (``src/eprsim`` must exist).  Every
command is a fresh ``python -m eprsim`` process, started one at a time
from this process, with an environment built from scratch: the package
from ``src``, and the BLAS thread count set to nproc.  Per-process CPU
time and peak RSS come from ``os.wait4``.

--trace 0 repeats the workload's pass while another fits in S seconds
(at least two passes) and reports the end-to-end metrics.  While it
runs, speed.py samples how fast each CPU is, and every time below is
first divided by the slowdown of the CPUs it ran on (see speed.py):

    wall_s       wall time of one pass: each command's median run, summed
    cpu_s        user+sys CPU time of a pass's processes, summed the same way
    peak_rss_mb  median over passes of the largest process RSS
    setup_s      the median wall time of the fresh processes that import
                 eprsim.cli and call build_parser(), started three at the
                 beginning, three at the end, and one between commands at
                 least SETUP_INTERVAL seconds apart in between

--trace 1 makes one plain pass, one pass with every command run through
traced_cli.py, and one run of layers.py, and reports the per-layer
metrics, the traced pass's wall time and the tracing overhead (traced
minus plain wall time).  Spans go to .perfbench_out/ as JSON lines.

Every output is checked (see checks.py); a command fails when it exits
non-zero or its output fails a check.  The first pass's outputs are also
corrupted on purpose, and every check must reject every corruption.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_EDGE = 3  # set-up probes at the start and at the end of a run
SETUP_INTERVAL = 1.5  # seconds; least time between probes during the passes
MIN_PASSES = 2
COMMAND_TIMEOUT = 150.0  # seconds; a command still running then is killed and fails
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under ``kind``."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@dataclass
class Outcome:
    status: int
    start: float  # spans.clock() when the command started and ended
    end: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    # speed.Sensors.slowdowns over [start, end] (--trace 0 only)
    wall_slowdown: float = 1.0
    cpu_slowdown: float = 1.0

    @property
    def wall(self) -> float:
        return self.end - self.start


class Runner:
    """Runs child processes one at a time through spawner.py.

    Use as a context manager: leaving it closes the spawner and waits
    for it to end.
    """

    def __init__(self, root: Path, work: Path, nproc: int):
        self.work = work
        self.python = [sys.executable, "-s"]
        self.env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(root / "src"),
            "PYTHONHASHSEED": "0",
            "PYTHONPYCACHEPREFIX": str(root / OUT_DIR / "pycache"),
            "LC_ALL": "C.UTF-8",
            **{var: str(nproc) for var in BLAS_THREAD_VARS},
        }
        self.spawner = subprocess.Popen(
            self.python + [str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env={"PATH": self.env["PATH"]}, text=True, bufsize=1)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=COMMAND_TIMEOUT + 10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, argv: list[str]) -> Outcome:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = {"argv": self.python + argv, "cwd": str(self.work), "env": self.env,
                   "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": COMMAND_TIMEOUT}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py ended unexpectedly")
        done = json.loads(reply)
        return Outcome(done["status"], done["start"], done["end"], done["cpu"],
                       done["rss_kb"] / 1024.0, out_path.read_bytes(), err_path.read_bytes())

    def eprsim(self, argv: list[str]) -> Outcome:
        return self.run(["-m", "eprsim", *argv])


@dataclass
class Pass:
    """One pass; cpu and rss_mb cover its timed commands only."""

    wall: float
    cpu: float
    rss_mb: float
    commands: list[workloads.Command]
    outcomes: list[Outcome]

    def timed(self) -> list[tuple[str, Outcome]]:
        return [(c.label, o) for c, o in zip(self.commands, self.outcomes) if c.timed]


class Bench:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.nproc = os.cpu_count() or 1
        self.work = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)  # nothing left from an earlier run
        self.work.mkdir(parents=True)
        self.runner = Runner(root, self.work, self.nproc)
        self.tracer = spans.Tracer()
        self.attempted = 0
        self.failures: list[str] = []  # one per failed command
        self.errors: list[str] = []  # faults of the benchmark itself
        self.digests: dict[str, str] = {}
        self.per_command: dict[str, list[Outcome]] = {}
        self.mutations_rejected = 0
        self.setups: list[Outcome] = []
        self.probing = False  # set-up probes between commands (--trace 0 only)
        self.last_probe = 0.0

    # -- passes ---------------------------------------------------------

    def commands(self, pass_index: int) -> list[workloads.Command]:
        return workloads.WORKLOADS[self.args.workload](self.args.seed, pass_index, self.nproc)

    def run_pass(self, pass_index: int, traced: bool = False) -> Pass:
        cmds = self.commands(pass_index)
        for cmd in cmds:
            for name, text in cmd.files.items():
                (self.work / name).write_text(text, encoding="utf-8")
        outcomes = []
        with self.tracer.span("pass", index=pass_index, traced=traced) as span:
            for i, cmd in enumerate(cmds):
                if self.probing and spans.clock() - self.last_probe >= SETUP_INTERVAL:
                    self.setup_probe()
                with self.tracer.span(f"command.{cmd.argv[0]}", index=i) as cspan:
                    if traced:
                        argv = [str(HERE / "traced_cli.py"), str(self.child_spans(cspan)),
                                cspan["id"], *cmd.argv]
                        outcomes.append(self.runner.run(argv))
                    else:
                        outcomes.append(self.runner.eprsim(cmd.argv))
        timed = [o for c, o in zip(cmds, outcomes) if c.timed]
        done = Pass(spans.duration(span), sum(o.cpu for o in timed),
                    max(o.rss_mb for o in timed), cmds, outcomes)
        for cmd, outcome in zip(cmds, outcomes):
            self.check(cmd, outcome, mutate=pass_index == 0 and not traced)
            self.per_command.setdefault(cmd.label, []).append(outcome)
        return done

    def child_spans(self, span: dict) -> Path:
        return self.work / f"spans-{span['id'].replace(':', '-')}.jsonl"

    def output(self, cmd: workloads.Command, outcome: Outcome) -> bytes:
        if cmd.out is None:
            return outcome.stdout
        path = self.work / cmd.out
        data = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)  # a later pass must write its own
        return data

    def check(self, cmd: workloads.Command, outcome: Outcome, mutate: bool) -> None:
        self.attempted += 1
        data = self.output(cmd, outcome)
        errors = []
        if outcome.status != 0:
            tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
            errors.append(f"exit status {outcome.status} {tail}")
        errors += cmd.check.run(data)
        if cmd.same_as is not None:
            digest = checks.digest(data)
            first = self.digests.setdefault(cmd.same_as, digest)
            if digest != first:
                errors.append(f"bytes differ from the first {cmd.same_as!r} output")
        if errors:
            self.failures.append(f"{cmd.label}: {'; '.join(errors)}")
        elif mutate:
            self.check_mutations(cmd, data)

    def check_mutations(self, cmd: workloads.Command, data: bytes) -> None:
        """Every corruption of a correct output must fail its check."""
        for name, corrupt in cmd.check.mutations:
            if cmd.check.run(corrupt(data)):
                self.mutations_rejected += 1
            else:
                self.errors.append(f"{cmd.label}: check accepted a corruption ({name})")
        if cmd.same_as is not None:
            if checks.digest(checks.flip_byte(data)) != self.digests[cmd.same_as]:
                self.mutations_rejected += 1
            else:
                self.errors.append(f"{cmd.label}: identity check accepted a flipped byte")

    # -- set-up ---------------------------------------------------------

    def probe(self) -> dict:
        """Import the package once (filling the bytecode cache) and report versions."""
        code = ("import json, sys, numpy, eprsim.cli; eprsim.cli.build_parser(); "
                "print(json.dumps({'python': sys.version.split()[0], "
                "'numpy': numpy.__version__, 'eprsim': eprsim.cli.__file__}))")
        outcome = self.runner.run(["-c", code])
        if outcome.status != 0:
            raise SystemExit(f"cannot import eprsim from src: {outcome.stderr.decode()[-500:]}")
        info = json.loads(outcome.stdout)
        if not Path(info["eprsim"]).resolve().is_relative_to(self.root / "src"):
            raise SystemExit(f"eprsim imported from {info['eprsim']}, not from src/")
        return info

    def setup_probe(self) -> None:
        """One fresh process that imports eprsim.cli and builds the parser."""
        with self.tracer.span("setup"):
            outcome = self.runner.run(["-c", "import eprsim.cli; eprsim.cli.build_parser()"])
        self.last_probe = spans.clock()
        if outcome.status != 0:
            self.failures.append(f"setup: exit status {outcome.status}")
        self.setups.append(outcome)

    def environment(self, probe: dict) -> dict:
        return {
            "nproc": self.nproc,
            "blas_threads": self.nproc,
            "python": probe["python"],
            "numpy": probe["numpy"],
            "git_sha": git_sha(self.root),
            "source_sha256": source_digest(self.root / "src" / "eprsim"),
            "machine": platform.machine(),
            "processor": cpu_model(),
        }

    # -- the two kinds of run ------------------------------------------

    def measure(self) -> tuple[dict[str, float], list[Pass]]:
        passes: list[Pass] = []
        with speed.Sensors(self.work) as sensors:
            # Set-up probes are spread over the whole run, so that one slow
            # stretch of a shared machine cannot hold back all of them.
            for _ in range(SETUP_EDGE):
                self.setup_probe()
            self.probing = True
            start = spans.clock()
            # A pass starts only if one more like the last ends within the time.
            while len(passes) < MIN_PASSES or (
                    spans.clock() - start + passes[-1].wall <= self.args.seconds):
                passes.append(self.run_pass(len(passes)))
            self.probing = False
            for _ in range(SETUP_EDGE):
                self.setup_probe()
        # Each time is divided by the slowdown of its CPUs while it ran
        # (see speed.py), then each command's median over its runs is taken.
        per_command: dict[str, list[Outcome]] = {}
        for p in passes:
            for label, outcome in p.timed():
                per_command.setdefault(label, []).append(outcome)
        for outcome in [o for runs in per_command.values() for o in runs] + self.setups:
            outcome.wall_slowdown, outcome.cpu_slowdown = sensors.slowdowns(
                outcome.start, outcome.end)

        def wall(runs: list[Outcome]) -> float:
            return statistics.median(o.wall / o.wall_slowdown for o in runs)

        def cpu(runs: list[Outcome]) -> float:
            return statistics.median(o.cpu / o.cpu_slowdown for o in runs)

        metrics = {
            "wall_s": sum(wall(runs) for runs in per_command.values()),
            "cpu_s": sum(cpu(runs) for runs in per_command.values()),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            "setup_s": wall(self.setups),
        }
        return metrics, passes

    def trace(self) -> tuple[dict[str, float], list[Pass]]:
        # Both passes run the same commands, so their difference is the
        # cost of tracing.
        plain = self.run_pass(0)
        traced = self.run_pass(0, traced=True)
        metrics_path = self.work / "layers.json"
        with self.tracer.span("layers.run") as span:
            outcome = self.runner.run([
                str(HERE / "layers.py"), "--seed", str(self.args.seed),
                "--workers", str(workloads.workers(self.nproc)),
                "--spans", str(self.child_spans(span)), "--metrics", str(metrics_path),
                "--parent", span["id"]])
        self.attempted += 1
        metrics: dict[str, float] = {}
        if outcome.status != 0:
            self.failures.append(f"layers.py: exit status {outcome.status}: "
                                 f"{outcome.stderr.decode(errors='replace')[-2000:]}")
        else:
            result = json.loads(metrics_path.read_text())
            metrics.update(result["metrics"])
            self.attempted += result["checks"]
            self.failures.extend(f"layers: {f}" for f in result["failures"])
        metrics["trace.wall_s"] = traced.wall
        metrics["trace.overhead_s"] = traced.wall - plain.wall
        return metrics, [plain, traced]

    def collect_spans(self) -> list[dict]:
        """This process's spans and every child's, in one list."""
        everything = list(self.tracer.spans)
        for path in sorted(self.work.glob("spans-*.jsonl")):
            everything.extend(spans.load(path))
            path.unlink()
        return everything


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def report(bench: Bench, env: dict, metrics: dict, passes: list[Pass],
           self_time: dict[str, float]) -> None:
    """Human-readable summary, printed before the result line."""
    a = bench.args
    print(f"eprsim benchmark: workload={a.workload} seed={a.seed} seconds={a.seconds} "
          f"trace={a.trace}")
    print("environment: " + json.dumps(env))
    print(f"passes: {len(passes)}; pass wall times: "
          + ", ".join(f"{p.wall:.3f}" for p in passes))
    for label, outs in bench.per_command.items():
        print(f"  {statistics.median(o.wall for o in outs):8.3f} s wall "
              f"{statistics.median(o.cpu for o in outs):8.3f} s cpu "
              f"{max(o.rss_mb for o in outs):8.1f} MB "
              f"{statistics.median(o.wall_slowdown for o in outs):6.3f} "
              f"{statistics.median(o.cpu_slowdown for o in outs):6.3f} slowdown  eprsim {label}")
    if self_time:
        total = sum(self_time.values())
        layers: dict[str, float] = {}
        for name, secs in self_time.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + secs
        print("self time per layer in the traced pass, then per span name:")
        for table in (layers, self_time):
            for name, secs in sorted(table.items(), key=lambda kv: -kv[1]):
                print(f"  {secs:9.4f} s {100 * secs / total:5.1f}%  {name}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g}")
    print(f"failed_ratio = {len(bench.failures)}/{bench.attempted}; "
          f"corruptions rejected by the checks: {bench.mutations_rejected}")
    for failure in bench.failures + bench.errors:
        print(f"FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="eprsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "eprsim" / "cli.py").is_file():
        print(f"error: no eprsim source tree at {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    bench = Bench(args, root)
    with bench.runner, bench.tracer.span("run", workload=args.workload, seed=args.seed,
                                         trace=args.trace):
        probe = bench.probe()
        env = bench.environment(probe)
        if args.trace:
            metrics, passes = bench.trace()
        else:
            metrics, passes = bench.measure()
    all_spans = bench.collect_spans()
    self_time = {}
    if args.trace:
        traced_pass = next(sp for sp in all_spans
                           if sp["name"] == "pass" and sp["sizes"]["traced"])
        self_time = spans.self_times(spans.subtree(all_spans, traced_pass["id"]))

    units = declared_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        bench.errors.append(f"metrics not measured: {missing}")
    result = {
        "correct": not bench.failures and not bench.errors,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    report(bench, env, metrics, passes, self_time)

    stem = bench.work.name
    with open(root / OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
        for span in all_spans:
            fh.write(json.dumps(span) + "\n")
    (root / OUT_DIR / f"{stem}.result.json").write_text(json.dumps({
        "result": result,
        "environment": env,
        "failed_ratio": len(bench.failures) / max(bench.attempted, 1),
        "failures": bench.failures,
        "benchmark_errors": bench.errors,
        "corruptions_rejected": bench.mutations_rejected,
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb,
                    "commands": [[c.label, c.timed, o.wall, o.cpu, o.rss_mb,
                                  o.wall_slowdown, o.cpu_slowdown]
                                 for c, o in zip(p.commands, p.outcomes)]}
                   for p in passes],
        "all_metrics": metrics,
        "setups": [[o.wall, o.wall_slowdown] for o in bench.setups],
        "self_time_s": self_time,
    }, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
