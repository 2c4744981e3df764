#!/usr/bin/env python3
"""End-to-end run on a locally downloaded wearable-stress export.

The dataset is access-restricted and never shipped with this repository; point
this script at your own copy (the directory holding S2/, S3/, ...) and it will
adapt it to the canonical format, run every pipeline stage, and print the
headline numbers.

Usage: python scripts/run_wesad.py --raw /path/to/WESAD --out wesad_run
"""

import argparse
import json
import sys
from pathlib import Path

from hrvaffect.adapters import adapt_wesad
from hrvaffect.learn import DEFAULT_N_TREES
from hrvaffect.pipeline import (
    config_from_dict,
    stage_extract,
    stage_importance,
    stage_report,
    stage_train_eval,
    stage_variance,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--raw", required=True, help="raw export root (contains S2/, S3/, ...)")
    parser.add_argument("--out", default="wesad_run", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-trees", type=int, default=DEFAULT_N_TREES)
    parser.add_argument("--max-instances", type=int, default=50,
                        help="instances explained by the importance stage")
    args = parser.parse_args(argv)

    out = Path(args.out)
    print(f"adapting raw export {args.raw} ...")
    manifest = adapt_wesad(args.raw, out / "data")

    config = config_from_dict({
        "manifest_path": str(manifest),
        "out_dir": str(out / "run"),
        "seed": args.seed,
        "learn": {"n_trees": args.n_trees},
        "explain": {"max_instances": args.max_instances},
    })
    print("extracting features ...")
    stage_extract(config)
    print("variance analysis ...")
    stage_variance(config)
    print("training and evaluating ...")
    metrics = stage_train_eval(config)
    print("shapley importance ...")
    stage_importance(config)
    report_path = stage_report(config)

    for modality in ("ECG", "PPG"):
        entry = metrics["modalities"][modality]
        print(f"{modality}: selected {entry['selected_family']}, "
              f"mean CV {entry['families'][entry['selected_family']]['mean_cv_accuracy']:.3f}, "
              f"holdout accuracy {entry['holdout_accuracy']:.3f}")
        chance = 1.0 / len(entry["confusion"]["labels"])
        flag = "ok" if entry["holdout_accuracy"] > 0.4 else "LOW"
        print(f"      chance level {chance:.2f}; sanity band (> 0.40): {flag}")
    print(f"full report: {report_path}")
    print(json.dumps(json.loads(report_path.read_text())["importance"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
