#!/usr/bin/env python3
"""The repo benchmark: the Table-5 campaign and the Fig-8 upper bounds,
timed end to end, each pass in fresh processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table5-cold --seed 0 \\
        --seconds 30 --trace 0

Every pass writes a fresh run ledger (``repro suite-run PLAN --ledger
L``) and then resumes over the finished ledger (``--resume``), each in
a fresh process. Each
metric is printed with its unit; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see ``perfbench/README.md``).
A full record, with the environment fingerprint, is written under
``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

#: Start-ups (or stock-model trainings) timed per run for ``setup_s``.
SETUP_REPEATS = 3
#: Resumes timed after each write, for ``resume_s``.
RESUMES = 3
#: The Oracle gap is averaged over this many job seeds, ``--seed`` and
#: then steps of :data:`FIDELITY_STRIDE`, so the seed sets of nearby
#: ``--seed`` values share no seed.
FIDELITY_SEEDS = 5
FIDELITY_STRIDE = 1000

WORKLOADS = {
    "table5-cold": {"workers": 1},
    "upper-bounds": {"workers": 2, "setup": "train"},
}
END_TO_END = {
    "campaign_s": ("s", "host"),
    "sim_epochs_per_s": ("epochs/s", "simulated epochs per host second"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MiB", "host"),
    "resume_s": ("s", "host"),
    "oracle_gap_pct": ("%", "simulated, exact"),
}


def median_and_quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


class Run:
    """One benchmark run: its scratch directory, processes, and tallies."""

    def __init__(self, args) -> None:
        self.args = args
        self.spec = WORKLOADS[args.workload]
        # One run at a time per checkout: a second waits for the first.
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        self.lock = open(ROOT / ".perfbench" / "lock", "w")
        fcntl.flock(self.lock, fcntl.LOCK_EX)
        self.work = ROOT / ".perfbench" / "work"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.samples = {
            "write_s": [], "resume_s": [], "rss_mb": [], "setup_s": []
        }
        self.traced = {"write_s": [], "groups": [], "passes": 0}
        #: Top-3 components by self time, profiler against spans.
        self.cross_check = None

    # -- processes ------------------------------------------------------
    def spawn(self, argv, name: str) -> dict:
        """Run one process to its end: wall seconds, exit code, and the
        peak RSS in MiB of the process or the largest child it reaped."""
        with open(self.work / f"{name}.err", "w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            tail = (self.work / f"{name}.err").read_text()[-2000:]
            print(f"{name}: exit {proc.returncode}\n{tail}", file=sys.stderr)
        return {
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
        }

    def repro(self, *argv):
        return [sys.executable, "-m", "repro", *argv]

    def child(self, *argv):
        return [sys.executable, str(HERE / "child.py"), *argv]

    # -- correctness ----------------------------------------------------
    def tally(self, path, n_jobs: int, reference=None, resumed=False):
        """Count a report's jobs as attempted, and the failed ones."""
        try:
            report = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            report = None
        self.attempted += n_jobs
        self.failed += check.failed_jobs(report, n_jobs, reference, resumed)
        return report

    def check_pass(self, stem: str) -> None:
        """The write must match the run's first write; each resume must
        match the write and execute no job."""
        n = self.n_jobs
        write = self.tally(f"{stem}.write.json", n, self.reference)
        if self.reference is None:
            self.reference = write
        for r in range(RESUMES):
            self.tally(f"{stem}.resume{r}.json", n, write, resumed=True)

    # -- workload plans -------------------------------------------------
    def plan(self) -> str:
        seed = self.args.seed
        name = self.args.workload
        if name == "upper-bounds":
            self.model = str(self.work.relative_to(ROOT) / "model.json")
            raw = workloads.upper_bounds(seed, self.model)
        else:
            raw = workloads.table5(seed)
        from repro.runner import CampaignPlan

        self.plan_key = CampaignPlan.from_dict(raw).key()
        self.n_jobs = len(raw["jobs"])
        path = self.work / "plan.json"
        path.write_text(json.dumps(raw, indent=1))
        return str(path)

    # -- measurement ----------------------------------------------------
    def setup(self, plan: str, repeats: int) -> None:
        for i in range(repeats):
            if self.spec.get("setup") == "train":
                argv = self.repro(
                    "train", "--kernel", "spmspm", "--mode", "ee",
                    "--out", self.model,
                )
            else:
                argv = self.child("probe", plan)
            proc = self.spawn(argv, f"setup{i}")
            if proc["code"]:
                raise SystemExit(f"set-up failed (exit {proc['code']})")
            self.samples["setup_s"].append(proc["wall_s"])

    def fresh_pass(self, plan: str, index: int, traced: bool) -> dict:
        """One write, then :data:`RESUMES` resumes of its ledger, each a
        fresh process."""
        stem = str(self.work / f"p{index}")
        base = [
            "suite-run", plan, "--workers", str(self.spec["workers"]),
            "--ledger", f"{stem}.ledger.jsonl",
        ]
        steps = [("write", [])]
        steps += [(f"resume{r}", ["--resume"]) for r in range(RESUMES)]
        out = {}
        for step, extra in steps:
            argv = base + extra + ["--out", f"{stem}.{step}.json"]
            spans = f"{stem}.spans.{step}"
            if traced:
                command = self.child("cli", "--spans", spans, "--", *argv)
            else:
                command = self.repro(*argv)
            out[step] = self.spawn(command, f"p{index}.{step}")
            if traced and out[step]["code"] == 0:
                self.traced["groups"].append(load_dumps(spans))
        self.check_pass(stem)
        return out

    def measure(self, plan: str) -> None:
        """Passes for ``--seconds``. A traced run spends the first half
        untraced and the second half traced, so it lasts as long."""
        trace = bool(self.args.trace)
        if not trace or self.spec.get("setup") == "train":
            self.setup(plan, 1 if trace else SETUP_REPEATS)
        index = 0
        window = self.args.seconds / 2 if trace else self.args.seconds
        for traced in (False, True) if trace else (False,):
            started = time.perf_counter()
            n = 0
            while not n or time.perf_counter() - started < window:
                result = self.fresh_pass(plan, index, traced)
                index += 1
                n += 1
                if traced:
                    self.traced["write_s"].append(result["write"]["wall_s"])
                    self.traced["passes"] += 1
                else:
                    self.samples["write_s"].append(result["write"]["wall_s"])
                    self.samples["resume_s"] += [
                        result[f"resume{r}"]["wall_s"] for r in range(RESUMES)
                    ]
                    self.samples["rss_mb"].append(result["write"]["rss_mb"])

    def reference_run(self, plan: str) -> None:
        """``--workers 1`` must give the same bytes as ``--workers N``."""
        out = self.work / "reference.json"
        argv = self.repro("suite-run", plan, "--out", str(out))
        self.spawn(argv, "reference")
        self.tally(out, self.n_jobs, self.reference)

    def oracle_gap(self) -> float:
        """The Fig-8 Oracle gap over :data:`FIDELITY_SEEDS` job seeds, from
        one more process after the timed window. Upper-bounds already has
        the rows of ``--seed`` itself from its passes."""
        seeds = [
            self.args.seed + i * FIDELITY_STRIDE for i in range(FIDELITY_SEEDS)
        ]
        rows = []
        if self.args.workload == "upper-bounds":
            rows = self.reference["rows"]
            seeds = seeds[1:]
        raw = workloads.fidelity(seeds)
        plan = self.work / "fidelity-plan.json"
        plan.write_text(json.dumps(raw))
        out = self.work / "fidelity.json"
        argv = self.repro("suite-run", str(plan), "--workers", "2",
                          "--out", str(out))
        self.spawn(argv, "fidelity")
        report = self.tally(out, len(raw["jobs"]))
        if report is None:
            raise SystemExit("fidelity run failed")
        return check.oracle_gap_pct({"rows": rows + report["rows"]})

    def profile_ranking(self, plan: str) -> list:
        """Components of ``repro suite-run --profile``, largest self time
        first, from one profiled cold pass."""
        from repro.obs.profile import component_breakdown

        out = self.work / "profile.json"
        argv = self.repro(
            "suite-run", plan, "--profile", "--profile-out", str(out)
        )
        self.spawn(argv, "profile")
        components = component_breakdown(json.loads(out.read_text()))
        return sorted(components, key=lambda name: -components[name]["self_s"])


def load_dumps(spans: str) -> list:
    """The parent's span dump first, then those of any forked workers."""
    parent = Path(spans)
    workers = sorted(parent.parent.glob(parent.name + ".w*"))
    return [json.loads(path.read_text()) for path in [parent, *workers]]


def fingerprint(args, run: Run) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    fast = os.environ.get("REPRO_FASTPATH", "1").strip().lower()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "plan_key": run.plan_key,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fastpath": fast not in ("0", "false", "no", "off"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(run: Run, oracle_gap: float) -> dict:
    campaign, q1, q3 = median_and_quartiles(run.samples["write_s"])
    epochs = check.simulated_epochs(run.reference)
    values = {
        "campaign_s": (campaign, q1, q3, len(run.samples["write_s"])),
        "sim_epochs_per_s": (epochs / campaign, epochs / q3, epochs / q1,
                             len(run.samples["write_s"])),
        "setup_s": (*median_and_quartiles(run.samples["setup_s"]),
                    len(run.samples["setup_s"])),
        "peak_rss_mb": (*median_and_quartiles(run.samples["rss_mb"]),
                        len(run.samples["rss_mb"])),
        "resume_s": (*median_and_quartiles(run.samples["resume_s"]),
                     len(run.samples["resume_s"])),
        "oracle_gap_pct": (oracle_gap, oracle_gap, oracle_gap, 1),
    }
    for name, (value, low, high, n) in values.items():
        unit, kind = END_TO_END[name]
        print(f"{name:18} {value:12.6g} {unit:9} median of {n}, "
              f"quartiles {low:.6g}..{high:.6g} ({kind})")
    return {name: {"value": v[0], "unit": END_TO_END[name][0]}
            for name, v in values.items()}


def per_layer(run: Run, plan: str) -> dict:
    import layers

    metrics = layers.per_layer_metrics(
        run.traced["groups"], run.traced["passes"]
    )
    untraced = statistics.median(run.samples["write_s"])
    traced = statistics.median(run.traced["write_s"])
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    for name, value in metrics.items():
        print(f"{name:36} {value:14.6g}")
    if run.args.workload == "table5-cold":
        profiled = run.profile_ranking(plan)[:3]
        traced_top = layers.component_ranking(metrics)[:3]
        verdict = "agree" if profiled == traced_top else "DISAGREE"
        print(f"attribution cross-check: profiler top 3 {profiled}, "
              f"layer spans top 3 {traced_top}: {verdict}")
        run.cross_check = {"profiler": profiled, "spans": traced_top}
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_pct", "%"), ("bytes", "B"),
                         ("ratio", "ratio"), ("coverage", "ratio"),
                         ("imbalance", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args)
    try:
        plan = run.plan()
        run.measure(plan)
        if run.spec["workers"] > 1:
            run.reference_run(plan)
        if args.trace:
            metrics = per_layer(run, plan)
        else:
            metrics = end_to_end(run, run.oracle_gap())
        record = {
            "fingerprint": fingerprint(args, run),
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
            "samples": run.samples,
            "traced_write_s": run.traced["write_s"],
            "attribution_cross_check": run.cross_check,
        }
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    print(f"jobs attempted {run.attempted}, failed {run.failed}; "
          f"record {path}")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: record[key] for key in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
