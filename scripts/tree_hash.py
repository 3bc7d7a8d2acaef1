#!/usr/bin/env python3
"""Hash the output trees of small fixed end-to-end runs.

Runs generate -> model -> analyze -> report, with all five knowledge levels,
on fixed small configs and prints one sha256 per output tree, with its file
count. A refactor that changes no result must print the same lines before
and after it:

    python scripts/tree_hash.py > before.txt   # on the parent commit
    python scripts/tree_hash.py > after.txt    # on the change
    diff before.txt after.txt

With `--subtrees`, each tree's line is followed by one indented line per
part of it: `systems/`, `curves/`, `analysis/` and the files at its root,
each with its own file count and sha256. A file in no listed part is an
error, so a directory that a layout change adds cannot go unhashed. A
change that alters bytes on purpose can then show which parts moved:

    python scripts/tree_hash.py --subtrees

The trees:
- `stage1`: 12 systems, so the stage-1 lasso runs (5 alphas);
- `no-stage1`: 6 systems, fewer than the 10 stage 1 needs, so it is skipped;
- `fallback`: 5 systems with within-module edge probability 0-0.2, so some
  IVs are left without parents and fall back to a constant model;
- `trials3`: 4 systems of 3 trials each, so every trial's semantics and
  noise draws are hashed and stage 1 folds over systems, not units;
each for both hardness modes. Takes 31-38 s on a 2-vCPU machine (it runs
on one core).
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from modperf.experiment import (  # noqa: E402
    ExperimentConfig,
    run_analyze,
    run_generate,
    run_model,
    run_report,
)
from modperf.influence_graph import AspectRanges  # noqa: E402

BASE = dict(
    global_seed=777,
    trials=1,
    train_sizes=(20, 50, 100, 300),
    n_train=300,
    n_test=150,
    lasso_alpha_steps=5,
    importance_repeats=2,
)
SMALL = dict(option_count=(4, 6), module_count=(3, 4))
TREES = {
    "stage1": dict(n_systems=12, aspect_ranges=AspectRanges(**SMALL)),
    "no-stage1": dict(n_systems=6, aspect_ranges=AspectRanges(**SMALL)),
    "fallback": dict(n_systems=5, aspect_ranges=AspectRanges(**SMALL, p_w=(0.0, 0.2))),
    "trials3": dict(n_systems=4, trials=3, aspect_ranges=AspectRanges(**SMALL)),
}


PARTS = ("systems/", "curves/", "analysis/", "root")


def _part(rel: Path) -> str:
    """The part of a tree a file at `rel` belongs to: its top directory, or
    "root" for a file directly in the tree."""
    return f"{rel.parts[0]}/" if len(rel.parts) > 1 else "root"


def tree_hash(root: Path, part: str | None = None) -> tuple[str, int]:
    """sha256 over every file's path relative to `root` and its bytes, in
    sorted order: of the whole tree, or of the files of one of PARTS."""
    digest = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    if part is not None:
        files = [p for p in files if _part(p.relative_to(root)) == part]
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest(), len(files)


def tree_lines(label: str, root: Path, subtrees: bool = False) -> list[str]:
    """The line of the tree at `root`, then with `subtrees` one line per
    part; with `subtrees`, a file in none of PARTS raises ValueError."""
    sha, count = tree_hash(root)
    lines = [f"{label} {count} files {sha}"]
    if subtrees:
        rels = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
        unlisted = [str(rel) for rel in rels if _part(rel) not in PARTS]
        if unlisted:
            raise ValueError(f"{label}: files in no part of {PARTS}: {unlisted}")
    for part in PARTS if subtrees else ():
        sha, count = tree_hash(root, part)
        lines.append(f"  {part} {count} files {sha}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--subtrees", action="store_true", help="also hash each part of every tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, overrides in TREES.items():
            for mode in ("fixed", "empirical"):
                out = Path(tmp) / f"{name}-{mode}"
                config = ExperimentConfig(
                    **(BASE | overrides), hardness_mode=mode, out_dir=str(out)
                )
                run_generate(config)
                run_model(config)
                run_analyze(config)
                run_report(config)
                print("\n".join(tree_lines(f"{name} {mode}", out, args.subtrees)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
