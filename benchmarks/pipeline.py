"""Run the `patchnet` CLI stages as separate processes and check their outputs.

Stages run one after another (a closed loop with one client):

    ingest -> preprocess -> train -> predict (raw commits)
           -> predict (one commit) -> evaluate -> baseline

Each stage is a fresh interpreter, so every stage pays start-up and
package import, as a user does.  Wall time and the child's own peak RSS
come from `os.wait4`, which reports each child separately (the
RUSAGE_CHILDREN running maximum would hide which stage peaked).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

CLI = "from patchnet.cli import main; main()"
RE_EPOCH_LOSS = re.compile(r"^epoch 1: loss (\S+)$", re.M)
RE_EPOCHS_RUN = re.compile(r"^train: (\d+) epochs", re.M)
REPORT_KEYS = ("accuracy", "precision", "recall", "f1", "auc")
STAGES = ("ingest", "preprocess", "train", "predict", "score_one", "evaluate", "baseline")


@dataclass
class StageRun:
    name: str
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and "Traceback" not in self.stderr


@dataclass
class Checks:
    """Output checks; each failed check counts against failure_rate."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, condition: bool, what: str) -> bool:
        self.attempted += 1
        if not condition:
            self.failures.append(what)
        return condition


def child_env(src: Path) -> dict[str, str]:
    """Environment for every program process: this checkout's sources,
    single-threaded BLAS (one client, at most nproc threads in a run)
    and a fixed hash seed so set iteration order cannot vary counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PATCHNET_SEED", None)
    return env


def _kill_on_alarm(pid: int):
    def handler(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # ended just as the alarm fired
            pass

    return handler


def run_process(argv: list[str], env: dict, cwd: Path, name: str, out_dir: Path, timeout_s: float) -> StageRun:
    """Run one process to completion; one still running after timeout_s is killed."""
    out_path = out_dir / f"{name}.stdout"
    err_path = out_dir / f"{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _kill_on_alarm(proc.pid))
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # already reaped by wait4
    return StageRun(
        name=name,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=code,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-c", CLI, *args]


def split_dataset(dataset: Path, train_path: Path, test_path: Path, one_path: Path, test_share: float):
    """Chronological split per label: the latest `test_share` of each
    label is held out; the first held-out commit is the single-commit input."""
    rows = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines() if line.strip()]
    train, test = [], []
    for label in ("stable", "non-stable"):
        group = sorted((r for r in rows if r.get("label") == label), key=lambda r: (r["date"], r["commit_id"]))
        n_test = max(1, round(len(group) * test_share))
        train += group[: len(group) - n_test]
        test += group[len(group) - n_test :]
    for path, part in ((train_path, train), (test_path, test), (one_path, test[:1])):
        path.write_text("".join(json.dumps(r) + "\n" for r in part), encoding="utf-8")
    return [r["commit_id"] for r in train], [r["commit_id"] for r in test]


def stage_args(workload, corpus: dict, w: Path, seed: int) -> dict[str, list[str]]:
    """CLI arguments of every stage, in pipeline order, reading and writing under w."""
    p = corpus["paths"]
    return {
        "ingest": ["ingest", "--mainline", p["mainline"], "--stable", p["stable"],
                   "--rc-ids", p["rc_ids"], "--out", str(w / "dataset.jsonl"), "--seed", str(seed)],
        "preprocess": ["preprocess", "--dataset", str(w / "train.jsonl"), "--out", str(w / "tensors.bin"),
                       "--vocab-out", str(w / "vocab.json"), *workload.preprocess_args],
        "train": ["train", "--tensors", str(w / "tensors.bin"), "--vocab", str(w / "vocab.json"),
                  "--functions", str(w / "tensors.bin.functions.json"), "--out", str(w / "model.ckpt"),
                  "--seed", str(seed), *workload.train_args],
        "predict": ["predict", "--checkpoint", str(w / "model.ckpt"), "--in", str(w / "test.jsonl"),
                    "--out", str(w / "scores.jsonl")],
        "score_one": ["predict", "--checkpoint", str(w / "model.ckpt"), "--in", str(w / "one.jsonl"),
                      "--out", str(w / "one_scores.jsonl")],
        "evaluate": ["evaluate", "--scores", str(w / "scores.jsonl"), "--report", str(w / "report.json")],
        "baseline": ["baseline", "--dataset", str(w / "test.jsonl"), "--out", str(w / "baseline.jsonl"),
                     "--report", str(w / "baseline_report.json")],
    }


def run_stages(workload, corpus: dict, w: Path, seed: int, run_stage, between=None) -> tuple[dict, tuple]:
    """Run the stage list with `run_stage(name, args) -> StageRun`.

    `between(name, stage_run)`, if given, is called after each stage that
    succeeded.  Returns (stage runs by name, (train ids, test ids)); stops
    at the first failed stage, since later stages need its output.
    """
    w.mkdir(parents=True, exist_ok=True)
    runs: dict[str, StageRun] = {}
    ids = ([], [])
    for name, args in stage_args(workload, corpus, w, seed).items():
        runs[name] = run_stage(name, args)
        if not runs[name].ok:
            break
        if name == "ingest":
            ids = split_dataset(w / "dataset.jsonl", w / "train.jsonl", w / "test.jsonl",
                                w / "one.jsonl", workload.test_share)
        if between is not None:
            between(name, runs[name])
    return runs, ids


def pipeline_s(runs: dict) -> float:
    """Wall time of the stage list: the sum of its stages' walls."""
    return sum(r.wall_s for r in runs.values())


def complete(runs: dict) -> bool:
    return len(runs) == len(STAGES) and all(r.ok for r in runs.values())


def _read_scores(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_outputs(workload, runs: dict, w: Path, ids: tuple, checks: Checks) -> dict:
    """Check every output the stages wrote; return facts worth recording."""
    facts: dict = {}
    for name in STAGES:
        run = runs.get(name)
        checks.expect(run is not None and run.ok,
                      f"stage {name} " + ("did not run" if run is None else f"exit {run.exit_code}"))
    if not complete(runs):
        return facts
    train_ids, test_ids = ids
    for path, expected in ((w / "scores.jsonl", test_ids), (w / "one_scores.jsonl", test_ids[:1])):
        try:
            rows = _read_scores(path)
        except (OSError, ValueError) as exc:
            checks.expect(False, f"{path.name} unreadable: {exc}")
            continue
        checks.expect(sorted(r.get("commit_id") for r in rows) == sorted(expected),
                      f"{path.name}: rows do not match the inputs one to one")
        checks.expect(all(isinstance(r.get("score"), float) and 0.0 <= r["score"] <= 1.0 for r in rows),
                      f"{path.name}: a score lies outside [0, 1]")
    facts["scores_digest"] = hashlib.sha256((w / "scores.jsonl").read_bytes()).hexdigest()[:16]
    for name in ("report.json", "baseline_report.json"):
        try:
            report = json.loads((w / name).read_text(encoding="utf-8"))
            ok = all(isinstance(report[k], float) and math.isfinite(report[k]) for k in REPORT_KEYS)
        except (OSError, ValueError, KeyError, TypeError):
            report, ok = {}, False
        checks.expect(ok, f"{name} does not parse as a metrics report")
        facts[name.replace(".json", "_auc")] = report.get("auc")
    if workload.auc_floor is not None:
        auc = facts.get("report_auc")
        checks.expect(auc is not None and auc >= workload.auc_floor,
                      f"held-out AUC {auc} below the planted-signal floor {workload.auc_floor}")
    m = RE_EPOCH_LOSS.search(runs["train"].stdout)
    facts["epoch1_loss"] = float(m.group(1)) if m else None
    checks.expect(m is not None, "train printed no epoch-1 loss")
    m = RE_EPOCHS_RUN.search(runs["train"].stdout)
    facts["epochs_run"] = int(m.group(1)) if m else 0
    checks.expect(m is not None, "train printed no epoch count")
    facts["n_train"], facts["n_test"] = len(train_ids), len(test_ids)
    return facts
