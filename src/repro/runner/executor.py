"""The supervised campaign executor.

:class:`SuiteRunner` drives a list of :class:`Job`\\ s through one
shared supervision pipeline: per-job deadline watchdog, bounded retries
with exponential backoff for :class:`~repro.errors.RetryableError`
(including timeouts), quarantine with a structured
:class:`JobFailure` for everything else, durable ledger checkpoints
after every terminal row, and clean SIGINT checkpointing. A failed job
becomes a ``failed`` row in the :class:`SuiteReport` — the sweep always
finishes.

Parallel campaigns (``workers > 1``) register the pending jobs in a
private experiment store (:mod:`repro.runner.store`) beside the ledger
— ``<ledger>.store``, or a temporary directory without one — and fork
N processes that claim jobs from it one at a time, each running them
under the *same* supervision discipline and publishing every job's
record group. The parent then folds the published groups into the
canonical ledger in plan order (:func:`repro.runner.ledger.recover_shards`)
and deletes the store; a store left by a killed run is folded the same
way on ``--resume``. Because job identity is content-addressed, retry
jitter is seeded per job, and host-fault draws are stateless per
``(seed, spec, job, attempt)``, the merged ledger and report are
byte-identical to a serial run's — modulo wall-clock fields —
regardless of worker count, claim order, or completion order.

Determinism contract: given the same plan, seeds, and code, the
report's :meth:`SuiteReport.stable_dict` is byte-identical whether the
campaign ran uninterrupted, was killed and resumed any number of times,
or ran under any ``--workers`` count. Everything wall-clock lives in
fields the stable view strips (``duration_s`` at the report and row
levels); everything else in a row is replayed from the ledger verbatim
on resume.

``repro suite-run`` fronts :func:`run_plan`; the ``repro faults``
campaign driver and ``repro experiment`` submit their own job lists
through the same :class:`SuiteRunner`, so every multi-job path in the
repository shares one supervision/retry/ledger code path.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.errors import (
    ConfigError,
    JobTimeoutError,
    ReproError,
    RetryableError,
)
from repro.runner.ledger import RunLedger, private_store_path, recover_shards
from repro.runner.plan import CampaignPlan
from repro.runner.supervisor import (
    HostFaultInjector,
    SupervisorConfig,
    backoff_delay,
    call_with_deadline,
)
from repro.runner.worker import (
    PortableJob,
    build_job,
    plan_portable_jobs,
    run_worker_shard,
)

__all__ = [
    "Job",
    "JobFailure",
    "SuiteReport",
    "SuiteRunner",
    "CampaignInterrupted",
    "run_plan",
    "format_suite_table",
]

#: Row/report keys carrying wall-clock values; stripped by the stable view.
_VOLATILE_KEYS = ("duration_s",)


class CampaignInterrupted(KeyboardInterrupt):
    """SIGINT during a campaign, after the ledger was checkpointed.

    Subclasses :class:`KeyboardInterrupt` so an uncaught interrupt
    still behaves like one; the CLI catches it to print the resume
    hint and exit 130. In a parallel campaign the parent fans the
    signal out to every worker, folds what they published into the
    canonical ledger, and raises this once — one resume hint, not N.
    """

    def __init__(
        self, ledger_path: Optional[str], completed: int, total: int
    ) -> None:
        self.ledger_path = ledger_path
        self.completed = completed
        self.total = total
        if ledger_path:
            self.resume_hint = (
                f"checkpointed {completed}/{total} jobs to {ledger_path}; "
                f"rerun with --resume to continue"
            )
        else:
            self.resume_hint = (
                f"stopped after {completed}/{total} jobs "
                f"(no --ledger, so nothing to resume)"
            )
        super().__init__(self.resume_hint)


@dataclass(frozen=True)
class Job:
    """One supervised unit of work: a key, a label, and a callable.

    ``fn`` must return a JSON-native dict (that is what the ledger
    stores and the resume path replays). ``meta`` is merged into the
    report row so downstream tooling can group/filter without parsing
    labels.
    """

    key: str
    label: str
    fn: Callable[[], dict]
    index: int
    deadline_s: Optional[float] = None
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class JobFailure:
    """Structured record of a job that was quarantined."""

    kind: str  # "timeout" | "retryable" | "poisoned" | "oom"
    error: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "error": self.error}


@dataclass
class SuiteReport:
    """Aggregate result of one campaign: one row per job, in plan order."""

    name: str
    rows: List[dict] = field(default_factory=list)
    n_resumed: int = 0
    duration_s: float = 0.0
    ledger_path: Optional[str] = None
    #: True when ``max_jobs`` stopped the campaign before the plan's end.
    partial: bool = False

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {"ok": 0, "failed": 0}
        for row in self.rows:
            out[row["status"]] = out.get(row["status"], 0) + 1
        return out

    def failures(self) -> List[dict]:
        return [row for row in self.rows if row["status"] == "failed"]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "counts": self.counts(),
            "rows": self.rows,
            "n_resumed": self.n_resumed,
            "duration_s": self.duration_s,
        }

    def stable_dict(self) -> dict:
        """The deterministic view: wall-clock and resume bookkeeping
        stripped, byte-identical across kill/resume cycles and worker
        counts."""
        payload = {
            "name": self.name,
            "counts": self.counts(),
            "rows": _strip_volatile(self.rows),
        }
        return payload


def _strip_volatile(value):
    if isinstance(value, dict):
        return {
            key: _strip_volatile(nested)
            for key, nested in value.items()
            if key not in _VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [_strip_volatile(item) for item in value]
    return value


class SuiteRunner:
    """Runs jobs under one supervision/ledger discipline.

    ``workers=1`` (default) executes sequentially in-process;
    ``workers=N`` runs portable jobs in N child processes working a
    private experiment store (only :meth:`run_portable` can
    parallelize — :meth:`run` takes live callables, which cannot cross
    a process boundary). ``worker`` is the rank when this runner *is*
    a worker process; it is attributed on every ``runner.job.*`` event
    the runner emits.
    """

    def __init__(
        self,
        config: Optional[SupervisorConfig] = None,
        ledger: Optional[RunLedger] = None,
        faults=None,
        workers: int = 1,
        worker: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers!r}")
        self.config = config or SupervisorConfig()
        self.ledger = ledger
        self.workers = workers
        self.worker = worker
        self.faults_schedule = faults
        self.host_faults = (
            HostFaultInjector(faults) if faults is not None else None
        )
        self._sleep = time.sleep  # patched in tests

    # ------------------------------------------------------------------
    def _emit(self, recorder, name: str, **attrs) -> None:
        """Trace event with per-worker attribution in a worker."""
        if self.worker is not None:
            attrs["worker"] = self.worker
        recorder.event(name, **attrs)

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job], name: str = "campaign") -> SuiteReport:
        """Run live jobs in this process, skipping ledger-settled ones."""
        return self._supervise(jobs, name, {})

    def _supervise(
        self, jobs: Sequence[Job], name: str, settled: Dict[str, dict]
    ) -> SuiteReport:
        """The one report loop: each job's row comes from ``settled``
        (terminal records worker processes produced), else from the
        ledger (resumed), else from running it here."""
        recorder = obs.get_recorder()
        report = SuiteReport(
            name=name,
            ledger_path=str(self.ledger.path) if self.ledger else None,
        )
        started = time.perf_counter()
        rows: List[dict] = []
        n_ok = 0
        n_failed = 0
        try:
            for job in jobs:
                cached = (
                    self.ledger.completed.get(job.key)
                    if self.ledger is not None
                    else None
                )
                if job.key in settled:
                    row = dict(settled[job.key]["row"])
                    _count_terminal(row)
                elif cached is not None:
                    row = dict(cached["row"])
                    report.n_resumed += 1
                    self._emit(
                        recorder,
                        "runner.job.resumed",
                        key=job.key,
                        label=job.label,
                        index=job.index,
                    )
                    obs.metrics.counter(
                        "runner.jobs", "campaign jobs by terminal status"
                    ).labels(status="resumed").inc()
                else:
                    if self.ledger is not None:
                        # Liveness for `repro top`: who is about to run
                        # what.
                        self.ledger.heartbeat(
                            done=n_ok,
                            failed=n_failed,
                            total=len(jobs),
                            job=job.label,
                        )
                    row = self._run_one(job, recorder)
                rows.append(row)
                if row.get("status") == "ok":
                    n_ok += 1
                else:
                    n_failed += 1
            if self.ledger is not None and jobs:
                self.ledger.heartbeat(
                    done=n_ok, failed=n_failed, total=len(jobs)
                )
        except KeyboardInterrupt:
            raise CampaignInterrupted(
                report.ledger_path, len(rows), len(jobs)
            ) from None
        finally:
            if self.ledger is not None:
                self.ledger.close()
        report.rows = rows
        report.duration_s = round(time.perf_counter() - started, 6)
        return report

    # ------------------------------------------------------------------
    def run_portable(
        self,
        jobs: Sequence[PortableJob],
        name: str = "campaign",
        plan_key: Optional[str] = None,
    ) -> SuiteReport:
        """Run portable job descriptions, parallel when ``workers > 1``.

        Pending jobs go to worker processes first (:meth:`_run_on_store`);
        the rows they settle then flow through the same loop as resumed
        and serial rows, so every path shares the report, metric and
        retry/quarantine/ledger machinery exactly.
        """
        pending = [
            job
            for job in jobs
            if self.ledger is None or job.key not in self.ledger.completed
        ]
        settled: Dict[str, dict] = {}
        if self.workers > 1 and len(pending) > 1:
            try:
                settled = self._run_on_store(jobs, pending, name, plan_key)
            except BaseException:
                if self.ledger is not None:
                    self.ledger.close()
                raise
        return self._supervise(
            [build_job(job) for job in jobs], name, settled
        )

    # ------------------------------------------------------------------
    def _run_on_store(
        self,
        jobs: Sequence[PortableJob],
        pending: Sequence[PortableJob],
        name: str,
        plan_key: Optional[str],
    ) -> Dict[str, dict]:
        """Work ``pending`` from a private store in N forked processes
        and fold what they publish into the ledger, in plan order.

        Returns the settled terminal records by job key. Raises
        :class:`CampaignInterrupted` after a SIGINT, and
        :class:`~repro.errors.ReproError` when dead workers lost jobs —
        either way after everything published was folded in.
        """
        import concurrent.futures as cf

        from repro.runner.store import ExperimentStore

        recorder = obs.get_recorder()
        n_workers = min(self.workers, len(pending))
        obs.metrics.gauge(
            "runner.workers",
            "worker processes of the last parallel campaign",
        ).set(n_workers)
        # Without --ledger the fold still needs a canonical ledger: a
        # throwaway one, with its store, in a temporary directory.
        tempdir = None if self.ledger else tempfile.mkdtemp(prefix="repro-")
        ledger = self.ledger or RunLedger(
            Path(tempdir) / "campaign.jsonl",
            plan_key=plan_key or name,
            plan_name=name,
        )
        root = private_store_path(ledger.path)
        _, profiler = obs.current()
        outcomes: Dict[int, dict] = {}
        interrupted = False
        try:
            # A store the caller did not recover is stale: start afresh.
            shutil.rmtree(root, ignore_errors=True)
            ExperimentStore.create_private(
                root,
                pending,
                name=name,
                plan_key=ledger.plan_key,
                config=self.config,
                faults=self.faults_schedule,
            )
            payload = {"store": str(root), "profile": profiler is not None}
            pool = cf.ProcessPoolExecutor(max_workers=n_workers)
            try:
                futures = {}
                for rank in range(n_workers):
                    self._emit(recorder, "runner.worker.spawn", worker=rank)
                    future = pool.submit(
                        run_worker_shard, {**payload, "worker": rank}
                    )
                    futures[future] = rank
                try:
                    for future in cf.as_completed(futures):
                        rank = futures[future]
                        try:
                            outcome = future.result()
                        except KeyboardInterrupt:
                            raise
                        except BaseException as exc:  # noqa: BLE001
                            # A worker died hard (BrokenProcessPool,
                            # pickling failure, ...): what it published
                            # is still folded below.
                            outcome = {
                                "worker": rank,
                                "error": f"{type(exc).__name__}: {exc}",
                            }
                            self._emit(
                                recorder, "runner.worker.failed", **outcome
                            )
                        else:
                            # Workers profile their own process; fold
                            # their span trees into the campaign's.
                            profile = outcome.pop("profile", None)
                            if profiler is not None:
                                profiler.merge(profile)
                            interrupted |= outcome["interrupted"]
                            self._emit(
                                recorder,
                                "runner.worker.done",
                                worker=outcome["worker"],
                                jobs=outcome.get("jobs", 0),
                                interrupted=outcome["interrupted"],
                            )
                        outcomes[rank] = outcome
                except KeyboardInterrupt:
                    # SIGINT fan-out: forward to every live worker so
                    # each stops cleanly, then drain the pool.
                    interrupted = True
                    self._signal_workers(pool)
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
            stats = recover_shards(ledger, [job.key for job in jobs])
            ledger.append_merge_record(
                {
                    "workers": n_workers,
                    "merged_jobs": stats.merged_jobs,
                    "merged_records": stats.merged_records,
                    "by_worker": [outcomes[r] for r in sorted(outcomes)],
                }
            )
        finally:
            if tempdir is not None:
                ledger.close()
                shutil.rmtree(tempdir, ignore_errors=True)
        settled = {
            job.key: ledger.completed[job.key]
            for job in pending
            if job.key in ledger.completed
        }
        ledger_path = str(self.ledger.path) if self.ledger else None
        if interrupted:
            raise CampaignInterrupted(
                ledger_path, len(jobs) - len(pending) + len(settled), len(jobs)
            )
        if len(settled) < len(pending):
            errors = "; ".join(
                f"worker {o['worker']}: {o['error']}"
                for o in outcomes.values()
                if "error" in o
            )
            raise ReproError(
                f"{len(pending) - len(settled)} job(s) lost to dead "
                f"workers ({errors or 'no terminal rows in the store'}); "
                + (
                    f"ledger checkpointed at {ledger_path} — rerun with "
                    f"--resume"
                    if ledger_path
                    else "no ledger was armed; rerun the campaign"
                )
            )
        return settled

    # ------------------------------------------------------------------
    def run_single(self, job: Job, ledger=None) -> dict:
        """Run one job under this runner's full supervision discipline
        (deadline, retries, host faults, quarantine) and return its
        terminal row.

        ``ledger`` optionally substitutes the checkpoint target for
        this job only — the experiment store passes a per-job group
        recorder here so a claimed job's records can be published
        first-wins as one atomic unit instead of streaming into the
        shared ledger. Any object with the ``job_started`` /
        ``job_retried`` / ``job_done`` / ``job_quarantined`` ledger
        methods works.
        """
        previous = self.ledger
        if ledger is not None:
            self.ledger = ledger
        try:
            return self._run_one(job, obs.get_recorder())
        finally:
            self.ledger = previous

    # ------------------------------------------------------------------
    @staticmethod
    def _signal_workers(pool) -> None:
        """Forward SIGINT to every live worker process of ``pool``."""
        import signal

        processes = getattr(pool, "_processes", None) or {}
        for pid in list(processes):
            try:
                os.kill(pid, signal.SIGINT)
            except (OSError, ProcessLookupError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    def _run_one(self, job: Job, recorder) -> dict:
        deadline = (
            job.deadline_s
            if job.deadline_s is not None
            else self.config.deadline_s
        )
        attempts = 0
        job_started = time.perf_counter()
        failure: Optional[JobFailure] = None
        result: Optional[dict] = None
        while True:
            attempts += 1
            if self.ledger is not None:
                self.ledger.job_started(job.key, job.index, attempts)
            self._emit(
                recorder,
                "runner.job.start",
                key=job.key,
                label=job.label,
                index=job.index,
                attempt=attempts,
            )
            fn = job.fn
            if self.host_faults:
                fn = self.host_faults.wrap(fn, job.index, attempts)
            try:
                result = call_with_deadline(fn, deadline, label=job.label)
                break
            except KeyboardInterrupt:
                raise
            except RetryableError as exc:
                kind = (
                    "timeout"
                    if isinstance(exc, JobTimeoutError)
                    else "retryable"
                )
                if attempts > self.config.max_retries:
                    failure = JobFailure(kind=kind, error=str(exc))
                    break
                delay = backoff_delay(self.config, job.index, attempts)
                if self.ledger is not None:
                    self.ledger.job_retried(
                        job.key, attempts, str(exc), delay
                    )
                self._emit(
                    recorder,
                    "runner.job.retry",
                    key=job.key,
                    label=job.label,
                    attempt=attempts,
                    error=str(exc),
                    backoff_s=round(delay, 6),
                )
                obs.metrics.counter(
                    "runner.retries", "job attempts retried, by failure kind"
                ).labels(kind=kind).inc()
                if delay > 0:
                    self._sleep(delay)
            except MemoryError as exc:
                # Memory-pressure abort: retrying at the same scale
                # would just OOM again, so quarantine immediately with
                # its own taxonomy kind.
                failure = JobFailure(
                    kind="oom",
                    error=f"MemoryError: {exc}",
                )
                break
            except Exception as exc:  # noqa: BLE001 - poisoned input
                failure = JobFailure(
                    kind="poisoned",
                    error=f"{type(exc).__name__}: {exc}",
                )
                break

        duration = round(time.perf_counter() - job_started, 6)
        row: Dict[str, object] = {
            "index": job.index,
            "key": job.key,
            "label": job.label,
            **job.meta,
        }
        if failure is None:
            row.update(
                status="ok", attempts=attempts, result=result,
                duration_s=duration,
            )
            if self.ledger is not None:
                self.ledger.job_done(job.key, row)
            self._emit(
                recorder,
                "runner.job.done",
                key=job.key,
                label=job.label,
                attempts=attempts,
            )
        else:
            row.update(
                status="failed", attempts=attempts,
                failure=failure.as_dict(), duration_s=duration,
            )
            if self.ledger is not None:
                self.ledger.job_quarantined(job.key, row)
            self._emit(
                recorder,
                "runner.job.quarantined",
                key=job.key,
                label=job.label,
                attempts=attempts,
                kind=failure.kind,
                error=failure.error,
            )
        _count_terminal(row)
        return row


def _count_terminal(row: dict) -> None:
    """Campaign metrics of one terminal row, wherever it ran."""
    status = "ok" if row.get("status") == "ok" else "failed"
    obs.metrics.counter(
        "runner.jobs", "campaign jobs by terminal status"
    ).labels(status=status).inc()
    if status == "failed":
        obs.metrics.counter(
            "runner.quarantined", "jobs quarantined, by failure kind"
        ).labels(kind=(row.get("failure") or {}).get("kind", "unknown")).inc()


# ---------------------------------------------------------------------------
def run_plan(
    plan: CampaignPlan,
    config: Optional[SupervisorConfig] = None,
    ledger_path: Optional[str] = None,
    resume: bool = False,
    max_jobs: Optional[int] = None,
    workers: int = 1,
) -> SuiteReport:
    """Execute a campaign plan under full supervision.

    ``ledger_path`` arms checkpointing (required for ``resume``);
    ``max_jobs`` stops after that many *newly executed* jobs — a
    deterministic interruption point used by tests and CI — leaving
    the ledger resumable. ``workers`` fans pending
    jobs across that many processes; results are byte-identical to a
    serial run regardless of the count (resuming with a *different*
    worker count is fine for the same reason).
    """
    ledger: Optional[RunLedger] = None
    if ledger_path is not None:
        ledger = RunLedger(
            ledger_path,
            plan_key=plan.key(),
            plan_name=plan.name,
            resume=resume,
        )
        if resume:
            if ledger.n_skipped:
                # Torn lines in the canonical ledger are tolerated on
                # load (the damaged jobs simply re-run), but surfaced:
                # persistent damage is what `repro fsck` diagnoses.
                obs.get_recorder().event(
                    "runner.ledger.torn",
                    path=str(ledger.path),
                    skipped=ledger.n_skipped,
                    hint="run `repro fsck` on this ledger",
                )
                obs.metrics.counter(
                    "runner.ledger.torn_lines",
                    "damaged ledger lines skipped on resume",
                ).inc(ledger.n_skipped)
            # A killed parallel run may have left its private store
            # behind: fold every group it published into the canonical
            # ledger so only genuinely unfinished jobs re-run.
            stats = recover_shards(ledger, [spec.key() for spec in plan.jobs])
            if stats.merged_records or stats.skipped_shards:
                obs.get_recorder().event(
                    "runner.shards.recovered",
                    jobs=stats.merged_jobs,
                    records=stats.merged_records,
                    foreign=stats.skipped_shards,
                )
        else:
            # Fresh campaign: a stale private store beside the new
            # ledger would pollute a later resume with an older run.
            shutil.rmtree(private_store_path(ledger.path), ignore_errors=True)
    runner = SuiteRunner(
        config=config, ledger=ledger, faults=plan.faults, workers=workers
    )
    jobs = plan_portable_jobs(plan)
    if max_jobs is not None:
        trimmed: List[PortableJob] = []
        fresh = 0
        for job in jobs:
            cached = ledger.completed.get(job.key) if ledger else None
            if cached is None:
                if fresh == max_jobs:
                    break
                fresh += 1
            trimmed.append(job)
        jobs = trimmed
    report = runner.run_portable(jobs, name=plan.name, plan_key=plan.key())
    report.partial = len(jobs) < len(plan.jobs)
    return report


def format_suite_table(report: SuiteReport) -> str:
    """Render a suite report as the ``repro suite-run`` table."""
    counts = report.counts()
    lines = [
        f"Campaign {report.name} — {len(report.rows)} jobs "
        f"({counts.get('ok', 0)} ok, {counts.get('failed', 0)} failed"
        + (f", {report.n_resumed} resumed from ledger" if report.n_resumed
           else "")
        + ")",
        "",
        f"{'job':<22} {'status':<8} {'att':>3} {'eff x':>8} {'perf x':>8}",
    ]
    for row in report.rows:
        if row["status"] == "ok":
            adaptive = (row.get("result") or {}).get("schemes", {}).get(
                "SparseAdapt"
            )
            eff = (
                f"{adaptive['efficiency_gain']:8.3f}" if adaptive else "     n/a"
            )
            perf = (
                f"{adaptive['perf_gain']:8.3f}" if adaptive else "     n/a"
            )
            lines.append(
                f"{row['label']:<22} {'ok':<8} {row['attempts']:>3d} "
                f"{eff} {perf}"
            )
        else:
            failure = row.get("failure", {})
            lines.append(
                f"{row['label']:<22} {'FAILED':<8} {row['attempts']:>3d} "
                f"  [{failure.get('kind')}] {failure.get('error')}"
            )
    return "\n".join(lines)
