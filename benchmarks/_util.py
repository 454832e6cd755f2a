"""Benchmark utilities: result emission and paper-vs-measured rendering.

Every benchmark regenerates one of the paper's tables or figures, renders
it next to the paper's reported values, prints it (visible with ``pytest
-s``), and writes it to ``benchmarks/results/<name>.txt`` so the harness
leaves an inspectable record.  EXPERIMENTS.md summarizes these outputs.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path
from typing import Mapping, Sequence

from repro.experiments.report import render_table

RESULTS_DIR = Path(__file__).parent / "results"


def provenance() -> str:
    """``sha <short sha>[+dirty], nproc <n>``: what a timing was measured on."""
    root = Path(__file__).resolve().parent.parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        # Only code counts: result files rewritten by earlier benches in
        # the same session do not make the measured tree dirty.
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no",
             "--", "src", "benchmarks/*.py"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", ""
    return f"sha {sha}{'+dirty' if dirty else ''}, nproc {len(os.sched_getaffinity(0))}"


def emit(name: str, text: str) -> None:
    """Print a rendered experiment and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n")


def paper_vs_measured(
    title: str,
    measured: Sequence[tuple[str, float]],
    paper: Mapping[str, float] | None = None,
    member_label: str = "member",
) -> str:
    """Render measured rows with the paper's reported value alongside."""
    if paper is None:
        rows = [(member, value) for member, value in measured]
        return render_table(title, (member_label, "measured"), rows)
    rows = []
    for member, value in measured:
        reported = paper.get(member)
        rows.append(
            (member, value, reported if reported is not None else "—")
        )
    return render_table(title, (member_label, "measured", "paper"), rows)
