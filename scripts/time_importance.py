#!/usr/bin/env python3
"""Time exact Shapley importance on the Shapley acceptance criterion's data.

Builds criterion 07's 13-feature, 4-class data (400 rows, seed 17), fits an
Extra-Trees forest of --n-trees trees on it, and times one global_importance
call against ExplainConfig's default number of background rows, drawn from
the first 300, explaining --instances of the 400 rows.  The fresh model has
built none of its cached layouts, as one loaded from model.json has not, so
the time includes its leaf boxes.

Prints one JSON object: the seconds for the whole call (per model) and that
over the instance count (per instance).

Usage: python scripts/time_importance.py [--n-trees N] [--instances M]
"""

import argparse
import json
import sys
import time

import numpy as np

from hrvaffect.explain import ExplainConfig, global_importance
from hrvaffect.hrv import FEATURE_NAMES
from hrvaffect.learn import DEFAULT_N_TREES, ExtraTreesParams, train_extra_trees

BACKGROUND_SIZE = ExplainConfig().background_size


def criterion_07_data():
    """The criterion's generator: class c shifts feature 0 by 2c."""
    rng = np.random.default_rng(17)
    X = rng.normal(size=(400, 13))
    y = np.array([f"c{i % 4}" for i in range(400)])
    for c in range(4):
        X[y == f"c{c}", 0] += 2.0 * c
    return X, y


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-trees", type=int, default=DEFAULT_N_TREES)
    parser.add_argument("--instances", type=int, default=ExplainConfig().max_instances)
    args = parser.parse_args(argv)

    X, y = criterion_07_data()
    model = train_extra_trees(X, y, FEATURE_NAMES, ExtraTreesParams(n_trees=args.n_trees), seed=2)
    config = ExplainConfig(background_size=BACKGROUND_SIZE, max_instances=args.instances)
    start = time.perf_counter()
    report = global_importance(model, X, y, range(X.shape[0]), X[:300], config, seed=3)
    per_model_s = time.perf_counter() - start
    print(json.dumps({
        "n_trees": args.n_trees,
        "background": BACKGROUND_SIZE,
        "instances": report.n_explained,
        "per_model_s": round(per_model_s, 6),
        "per_instance_s": round(per_model_s / report.n_explained, 6),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
