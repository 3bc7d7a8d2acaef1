#!/usr/bin/env python3
"""Write a paper-scale config JSON: 400 systems, 40 trials, full search
spaces. Differs from desk scale only in counts.

Usage:
    python scripts/paper_scale_config.py > paper_config.json
    modperf all --config paper_config.json --jobs 8 --out runs/paper
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from modperf.experiment import ExperimentConfig

config = ExperimentConfig(
    global_seed=20250801,
    n_systems=400,
    trials=40,
    train_sizes=(20, 50, 100, 200, 500, 1000),
    n_train=1000,
    n_test=1000,
    budget_evaluations=20,
    forest_scale="paper",
    lasso_degrees=(1, 2, 3, 4),
    lasso_alpha_steps=500,
    importance_repeats=30,
)

json.dump(config.persisted_dict(), sys.stdout, indent=2, sort_keys=True)
sys.stdout.write("\n")
