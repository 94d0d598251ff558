"""Command-line front end.

Subcommands: ``gen`` (write a synthetic dataset), ``train`` (step 0 plus
restraint/relaxation iterations, with checkpoints and a trace CSV),
``eval`` (score a checkpoint against a dataset), ``diagnose`` (print the
correlation score of checkpoints), ``compare`` (train once per
replacement method), and ``sweep-dim`` (train across embedding widths
with and without the iteration scheme).

Every subcommand runs through ``_run``: create ``--out``, resolve the
config and load the dataset, write ``manifest.json`` (tool version,
seed, effective config, artifact paths) before any work, and exit 0
only if every artifact exists afterwards.  Every file is written through
``errors.open_artifact``, so a failed command leaves no partial file
under an artifact's name.  ``gen`` takes one flag per parameter of
``generate_synthetic``, with its default; every other command takes one
flag per config key, generated from ``config.CONFIG_KEYS``
(``--step0-epochs`` sets ``step0_epochs``); flags override the file.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .config import CONFIG_KEYS, PARSERS, RunConfig, load_config, override_config, parse_dims
from .decorrelate import DecorrMethod
from .errors import SvdnError, ValidationError, open_artifact, write_csv
from .evaluation import (
    evaluate_features,
    format_report,
    generate_synthetic,
    l2_normalize,
    load_dataset,
    require_queries,
    save_dataset,
    write_report,
)
from .network import load_checkpoint, save_checkpoint
from .trainer import (
    CHECKPOINT_GLOB,
    FINAL_CHECKPOINT,
    PHASE_STEP0,
    checkpoint_name,
    evaluate_model,
    initial_model,
    parse_checkpoint_name,
    run_decorr_comparison,
    run_dim_sweep,
    run_rri,
    train_step0,
    write_trace,
)
from .diagnostics import s_of_w


_GEN_DEFAULTS = {name: p.default for name, p in inspect.signature(generate_synthetic).parameters.items()}
_GEN_FLAGS = {"identities": "--ids", "samples_per_id_camera": "--samples"}  # the others: "--" + name


def _run(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.dataset_use is None:
        data, cfg = None, {name: getattr(args, name) for name in _GEN_DEFAULTS}  # generate_synthetic's arguments
        config = dict(cfg)
        seed = config.pop("seed")
    else:
        flags = {key: PARSERS[key](key, getattr(args, key)) for key in CONFIG_KEYS if getattr(args, key) is not None}
        cfg = override_config(load_config(args.config) if args.config else RunConfig(), **flags)
        if args.dataset_use == "required" and not cfg.dataset:
            raise ValidationError("config key 'dataset' is required (set it in the config file or pass --dataset)")
        if cfg.dataset and not Path(cfg.dataset).is_file():
            raise ValidationError(f"config key 'dataset': no such file {cfg.dataset!r}")
        data = load_dataset(cfg.dataset) if cfg.dataset else None
        if data is not None:
            require_queries(data, f"dataset {cfg.dataset}")  # every command given data scores retrieval
        seed, config = cfg.seed, asdict(cfg)
    manifest = {
        "tool": "svdn",
        "version": __version__,
        "command": args.command,
        "seed": seed,
        "config": config,
        "artifacts": args.artifacts,
    }
    with open_artifact(out / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    args.work(args, out, cfg, data)
    missing = [rel for rel in args.artifacts.values() if not (out / rel).exists()]
    if missing:
        print(f"error: missing artifacts after run: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


def cmd_gen(args, out, cfg, data) -> None:
    dataset = generate_synthetic(**cfg)
    save_dataset(dataset, out / "dataset.csv")
    print(f"wrote {out / 'dataset.csv'}: {dataset.features.shape[0]} rows, dim {dataset.dim}")


def cmd_train(args, out, cfg, data) -> None:
    model, step0_record = train_step0(initial_model(data, cfg), data, cfg, out_dir=out)
    model, trace = run_rri(model, data, cfg, out_dir=out)
    trace.records.insert(0, step0_record)
    write_trace(trace, out / "trace.csv")
    save_checkpoint(model, out / FINAL_CHECKPOINT)

    last = trace.records[-1]
    print(f"completed {last.rri_index} iteration(s), converged={trace.converged}")
    print(f"final s_of_w={last.s_of_w:.6f} rank1={last.rank1:.4f} mAP={last.map:.4f}")


def _load_model(path, cfg, data):
    """The checkpoint at ``path``, checked against the dataset's width, if any."""
    model = load_checkpoint(path)
    if data is not None and model.input_dim != data.dim:
        raise ValidationError(
            f"checkpoint {path} expects {model.input_dim} features but dataset {cfg.dataset} has {data.dim}"
        )
    return model


def cmd_eval(args, out, cfg, data) -> None:
    model = _load_model(args.ckpt, cfg, data)
    qf = model.extract_features(data.query_features, cfg.feature)
    gf = model.extract_features(data.gallery_features, cfg.feature)
    if args.l2_normalize:
        qf, gf = l2_normalize(qf), l2_normalize(gf)
    report = evaluate_features(data, qf, gf)
    write_report(report, out / "report.csv")
    print(format_report(report), end="")


def _collect_checkpoints(paths: list[str]) -> list[Path]:
    """The checkpoint files in training order (``parse_checkpoint_name``).
    A directory contributes its ``CHECKPOINT_GLOB`` files and must hold one."""
    found: list[Path] = []
    for p in paths:
        path = Path(p)
        files = list(path.glob(CHECKPOINT_GLOB)) if path.is_dir() else [path]
        if not files:
            raise ValidationError(f"no {CHECKPOINT_GLOB} checkpoint in directory {p}")
        found.extend(files)
    return sorted(found, key=lambda path: parse_checkpoint_name(path.name)[2])


def cmd_diagnose(args, out, cfg, data) -> None:
    rows = []
    for path in _collect_checkpoints(args.checkpoints):
        model = _load_model(path, cfg, data)
        score = s_of_w(model.eigenlayer)
        rank1, mean_ap = evaluate_model(model, data, cfg.feature) if data is not None else ("", "")
        rows.append((str(path), *parse_checkpoint_name(path.name)[:2], score, rank1, mean_ap))
        extra = f" rank1={rank1!r} map={mean_ap!r}" if data is not None else ""
        print(f"{path.name}: s_of_w={score!r}{extra}")
    write_csv(out / "diagnose.csv", ["checkpoint", "rri_index", "phase", "s_of_w", "rank1", "map"], rows)


def cmd_compare(args, out, cfg, data) -> None:
    methods = None if args.methods is None else [DecorrMethod.from_name(n.strip()) for n in args.methods.split(",")]
    rows = run_decorr_comparison(data, cfg, methods=methods)
    write_csv(out / "comparison.csv", ["method", "rank1", "map"], [[m.value, r.rank1, r.map] for m, r in rows])
    print("method   rank1    mAP")
    for method, r in rows:
        print(f"{method.value:<8} {r.rank1:.4f}  {r.map:.4f}")


def cmd_sweep_dim(args, out, cfg, data) -> None:
    dims = parse_dims("--dims", args.dims, "flag")
    if not dims:
        raise ValidationError("flag '--dims': expected at least one dimension")
    results = run_dim_sweep(data, cfg, dims)
    for dim, w, wo in results:
        print(
            f"dim {dim:>4}: with-RRI mAP={w.map:.4f} rank1={w.rank1:.4f} | "
            f"without mAP={wo.map:.4f} rank1={wo.rank1:.4f}"
        )
    write_csv(
        out / "sweep_dim.csv",
        ["dim", "map_with_rri", "map_without_rri", "rank1_with_rri", "rank1_without_rri"],
        [[dim, w.map, wo.map, w.rank1, wo.rank1] for dim, w, wo in results],
    )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="path to a key=value config file")
    common.add_argument("--out", default="runs", help="output directory (default: runs)")

    parser = argparse.ArgumentParser(prog="svdn", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"svdn {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    # dataset_use: "required", "optional", or None for a command without a run config.
    def command(name, work, artifacts, dataset_use, summary):
        sub = subs.add_parser(name, parents=[common], help=summary)
        if dataset_use is not None:
            for key in CONFIG_KEYS:
                sub.add_argument("--" + key.replace("_", "-"), dest=key, help=f"overrides config key {key}")
        sub.set_defaults(work=work, artifacts=artifacts, dataset_use=dataset_use)
        return sub

    gen = command("gen", cmd_gen, {"dataset": "dataset.csv"}, None, "write a synthetic retrieval dataset")
    for name, default in _GEN_DEFAULTS.items():
        flag = _GEN_FLAGS.get(name, "--" + name.replace("_", "-"))
        gen.add_argument(flag, dest=name, type=type(default), default=default, help=f"default: {default}")

    command(
        "train",
        cmd_train,
        {"trace": "trace.csv", "step0_checkpoint": checkpoint_name(0, PHASE_STEP0), "final_checkpoint": FINAL_CHECKPOINT},
        "required",
        "step 0 plus restraint/relaxation iterations",
    )

    ev = command("eval", cmd_eval, {"report": "report.csv"}, "required", "score a checkpoint against a dataset")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--l2-normalize", dest="l2_normalize", action="store_true", help="cosine-style scoring")

    diag = command(
        "diagnose", cmd_diagnose, {"diagnose": "diagnose.csv"}, "optional",
        "print the correlation score per checkpoint",
    )
    diag.add_argument("checkpoints", nargs="+", help="checkpoint files or directories")

    comp = command(
        "compare", cmd_compare, {"comparison": "comparison.csv"}, "required", "train once per replacement method"
    )
    comp.add_argument("--methods", default=None, help="comma-separated subset of Orig,US,U,UVt,QD")

    sweep = command(
        "sweep-dim", cmd_sweep_dim, {"sweep": "sweep_dim.csv"}, "required", "train across embedding widths"
    )
    sweep.add_argument("--dims", default="4,8,16,32,64,128", help="comma-separated eigenlayer widths")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SvdnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
