#!/usr/bin/env python3
"""Peak resident memory of extract's steps on one fidelity twin.

Run in a fresh process, it builds the fidelity twin of hrvaffect.experiments
named by --fidelity (high: 1000/1000 Hz, low: 700/64 Hz) over --duration
seconds and reads ru_maxrss after each step: the imports (scipy.signal
included), the generation, each filter_signal call featurize makes, and
featurize.  The subject reaches featurize through a lazy one-subject
iterable, as extract passes it, so each raw record can be dropped once it is
filtered.

Prints one JSON object; ru_maxrss is the peak so far, so the numbers only
rise, and each step's cost is its rise over the step before.

Usage: python scripts/peak_memory.py [--fidelity {high,low}] [--duration S]
"""

import argparse
import json
import resource
import sys

import scipy.signal  # noqa: F401  (extract imports it on its first filter)

from hrvaffect import pipeline
from hrvaffect.experiments import DURATION_S, FIDELITY, twin_spec
from hrvaffect.ingest import generate_synthetic


def maxrss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fidelity", choices=sorted(FIDELITY), default="high")
    parser.add_argument("--duration", type=float, default=DURATION_S)
    args = parser.parse_args(argv)
    steps = {"imports": maxrss_mb()}
    spec = twin_spec(args.fidelity, duration_s=args.duration)

    def generated():
        subject = generate_synthetic(spec)[0]
        steps["generate"] = maxrss_mb()
        return subject

    def one_subject():
        yield generated()

    def filter_signal(record, filter_spec, original=pipeline.filter_signal):
        filtered = original(record, filter_spec)
        steps[f"filter_{record.modality.value}"] = maxrss_mb()
        return filtered

    pipeline.filter_signal = filter_signal
    pipeline.featurize(one_subject(), pipeline.PipelineConfig())
    steps["featurize"] = maxrss_mb()
    print(json.dumps({
        "fidelity": args.fidelity,
        "duration_s": args.duration,
        "ecg_samples": round(spec.duration_s * spec.ecg_rate_hz),
        "maxrss_mb": steps,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
