"""Command-line entry points for the full pipeline.

Each subcommand is a thin wrapper over one pipeline stage.  Configuration
comes from an optional JSON file plus flag overrides; failures exit non-zero
with a single machine-readable JSON object on stderr.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import click

from . import adapters, pipeline
from .serialize import read_json


def _fail(payload: dict):
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(1)


def _run_stage(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except pipeline.PipelineError as exc:
        _fail(exc.payload())
    except FileNotFoundError as exc:
        # Any input the user names: a config, spec or manifest, or a manifest's CSV.
        _fail({"error": "MissingInput", "message": f"{exc.filename}: {exc.strerror}",
               "input": str(exc.filename)})
    except ValueError as exc:
        # Parse, RateMismatch, InvalidSpec and UnrecognizedLayout are ValueErrors.
        _fail({"error": type(exc).__name__.removesuffix("Error"), "message": str(exc)})


@click.group()
def main():
    """HRV feature variance and affective-state classification pipeline."""


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(), help="Synthetic spec JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Dataset directory.")
def synth(spec_path, out_dir):
    """Generate a synthetic dataset in the canonical on-disk format."""
    manifest = _run_stage(pipeline.stage_synth, spec_path, out_dir)
    click.echo(str(manifest))


@main.command("adapt-wesad")
@click.option("--raw", "raw_root", required=True, type=click.Path(), help="Raw export root.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Dataset directory.")
def adapt_wesad(raw_root, out_dir):
    """Adapt a wearable-stress dataset export to the canonical format."""
    manifest = _run_stage(adapters.adapt_wesad, raw_root, out_dir)
    click.echo(str(manifest))


@main.command("adapt-case")
@click.option("--raw", "raw_root", required=True, type=click.Path(), help="Raw export root.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Dataset directory.")
def adapt_case(raw_root, out_dir):
    """Adapt a continuous-annotation dataset export to the canonical format."""
    manifest = _run_stage(adapters.adapt_case, raw_root, out_dir)
    click.echo(str(manifest))


# Flag spellings that are not the field's own name.  A bool field gets one flag
# that sets it true, or an on/off pair where its spelling holds a "/".
_FLAG_NAMES = {
    "out_dir": "out",
    "manifest_path": "manifest",
    "synthetic_spec_path": "synthetic-spec",
    "low_cut_hz": "low-hz",
    "high_cut_hz": "high-hz",
    "zero_phase": "zero-phase/causal",
}


def _leaf_fields(cls, path=()):
    """(path, type) of every non-dataclass field under the dataclass cls."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from _leaf_fields(hints[f.name], path + (f.name,))
        else:
            yield path + (f.name,), hints[f.name]


_CONFIG_FIELDS = tuple(_leaf_fields(pipeline.PipelineConfig))
_SHARED_NAMES = {
    name for name, n in Counter(path[-1] for path, _ in _CONFIG_FIELDS).items() if n > 1
}


def _split_commas(ctx, param, value):
    return None if value is None else [v.strip() for v in value.split(",") if v.strip()]


def _config_option(path: tuple[str, ...], hint):
    """One flag per config field, named after the field.  A field name that
    several sections share is prefixed with its section's first word, so
    ecg_filter.order is --ecg-order; every flag defaults to "not given"."""
    prefix = path[-2].split("_")[0] + "-" if path[-1] in _SHARED_NAMES else ""
    name = _FLAG_NAMES.get(path[-1], path[-1].replace("_", "-"))
    decl = "/".join(f"--{prefix}{part}" for part in name.split("/"))
    dest = "__".join(path)
    help_text = f"Sets config field {'.'.join(path)}."
    if type(None) in get_args(hint):
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if hint is bool:
        return click.option(decl, dest, is_flag=True, default=None, help=help_text)
    if get_origin(hint) is tuple:
        return click.option(decl, dest, default=None, callback=_split_commas,
                            help=f"{help_text} Comma-separated.")
    return click.option(decl, dest, type=hint, default=None, help=help_text)


def _config_options(fn):
    options = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="Pipeline config JSON; flags override its fields."),
        *(_config_option(path, hint) for path, hint in _CONFIG_FIELDS),
        click.option("--force", is_flag=True, default=False,
                     help="Allow writing into a directory stamped with a different config."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _build_config(config_path, **flags) -> pipeline.PipelineConfig:
    doc = {}
    if config_path is not None:
        try:
            doc = read_json(config_path)
        except FileNotFoundError:
            raise  # MissingInput, from _run_stage
        except (OSError, ValueError) as exc:
            raise pipeline.ConfigInvalidError(
                "config", f"cannot read {config_path} as JSON: {exc}"
            ) from exc
        if isinstance(doc, dict) and doc.keys() == {"config", "config_hash"}:
            doc = doc["config"]  # the config.json a stage stamps into its out_dir
        if not isinstance(doc, dict):
            raise pipeline.ConfigInvalidError("config", "config must be an object")
    for path, _ in _CONFIG_FIELDS:
        value = flags["__".join(path)]
        if value is not None:
            section = doc
            for key in path[:-1]:
                section = section.setdefault(key, {})
            if isinstance(section, dict):  # else config_from_dict names the section
                section[path[-1]] = value
    return pipeline.config_from_dict(doc)


def _stage_command(name: str, stage_fn, help_text: str):
    @main.command(name, help=help_text)
    @_config_options
    def command(config_path, force, **flags):
        config = _run_stage(_build_config, config_path, **flags)
        result = _run_stage(stage_fn, config, force=force)
        if isinstance(result, Path):
            click.echo(str(result))
        else:
            click.echo(json.dumps({"ok": True, "out_dir": config.out_dir}, sort_keys=True))

    return command


_stage_command("extract", pipeline.stage_extract,
               "Filter, window and extract HRV features into features.csv.")
_stage_command("variance", pipeline.stage_variance,
               "Inter-signal and per-state feature variance reports.")
_stage_command("train-eval", pipeline.stage_train_eval,
               "Cross-validate model families, evaluate the holdout, emit ROC curves.")
_stage_command("importance", pipeline.stage_importance,
               "Shapley feature importance for the trained tree ensemble.")
_stage_command("report", pipeline.stage_report,
               "Aggregate all stage outputs into a single run-summary JSON.")


if __name__ == "__main__":
    main()
