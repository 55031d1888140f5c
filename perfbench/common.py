"""Shared plumbing for the end-to-end benchmark: statistics, hermetic
per-run directories, the environment fingerprint, child set-up probes
and result printing.

Nothing here imports ``repro``: the workload modules import it inside
their set-up functions so that set-up time includes the import.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: The benchmark directory and the checkout it lives in.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Generated files (span dumps, per-run results); ignored by git.
OUT_DIR = BENCH_DIR / "out"
#: Parent of the per-run scratch directories; ignored by git.
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Set-up samples per run: this process plus ``SETUP_SAMPLES - 1``
#: sequential child processes, each with a cold compile cache.
SETUP_SAMPLES = 3


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def block_median(values: Sequence[float], block: int) -> float:
    """Mean, over consecutive blocks of ``block`` values, of each block's
    median.

    The host's speed drifts by a fifth over a few seconds.  A median over
    the whole run lands in whichever speed phase held most of it, so it
    jumps between phases from run to run; the block medians weigh every
    phase by its length and still ignore outliers inside a block, such
    as checkpoint stalls.
    """
    blocks = [values[i:i + block] for i in range(0, len(values) - block + 1, block)]
    if not blocks:
        return median(values)
    return mean(median(b) for b in blocks)


def mean(values: Iterable[float]) -> float:
    xs = list(values)
    return sum(xs) / len(xs) if xs else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RunDirs:
    """Fresh scratch directories for one process, removed on close.

    ``lower_cache`` becomes ``REPRO_LOWER_CACHE`` so every run compiles
    cold and nothing accumulates in the user's compile cache; ``ckpt``
    receives checkpoints; ``TMPDIR`` points inside too, so the run writes
    only inside the checkout.
    """

    def __init__(self) -> None:
        TMP_ROOT.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
        self.lower_cache = self.root / "lower"
        self.ckpt = self.root / "ckpt"
        self.tmp = self.root / "tmp"
        for d in (self.lower_cache, self.ckpt, self.tmp):
            d.mkdir()
        os.environ["REPRO_LOWER_CACHE"] = str(self.lower_cache)
        os.environ["TMPDIR"] = str(self.tmp)
        tempfile.tempdir = str(self.tmp)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass


def stop_child_processes() -> None:
    """Stop every process this run started and wait for each to end.

    The ``mp`` data-parallel backend forks echo workers and, through
    ``multiprocessing.shared_memory``, starts the resource-tracker
    helper.  The tracker outlives its parent by design (it exits only
    after the parent's pipe closes), so it is stopped and waited for
    explicitly; workers still alive on an error path are killed first,
    because they hold the tracker's pipe open.
    """
    import multiprocessing

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join(timeout=10.0)
    rt = sys.modules.get("multiprocessing.resource_tracker")
    if rt is not None:
        rt._resource_tracker._stop()


def _first_line(cmd: List[str]) -> Optional[str]:
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, cwd=ROOT
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0 or not out.stdout.strip():
        return None
    return out.stdout.strip().splitlines()[0]


def fingerprint() -> Dict[str, object]:
    """Where a result was measured: CPU, cores, interpreter, BLAS, cc."""
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = _first_line(["git", "rev-parse", "HEAD"])
    return {
        "cpu": cpu or platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cc": _first_line(["cc", "--version"]),
        "commit": commit,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Run one cold set-up in a fresh child process; returns seconds."""
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--setup-probe", "--workload", workload, "--seed", str(seed),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe for {workload} failed:\n{proc.stderr[-2000:]}"
        )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def write_out(name: str, payload: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return path
