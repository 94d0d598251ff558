"""Command-line front end.

Subcommands: ``gen`` (write a synthetic dataset), ``train`` (step 0 plus
restraint/relaxation iterations, with checkpoints and a trace CSV),
``eval`` (score a checkpoint against a dataset), ``diagnose`` (print the
correlation score of checkpoints), ``compare`` (train once per
replacement method), and ``sweep-dim`` (train across embedding widths
with and without the iteration scheme).

Every subcommand runs through ``_run``: read its settings and dataset, run
the command (a generator) to its one ``yield``, by which it has made and
checked all else it reads, create ``--out`` and ``manifest.json`` (tool
version, seed, settings read, other arguments, artifact paths), resume it,
and exit 0 only if every artifact exists; a rejected input makes no ``--out``.
Every file is written through ``errors.open_artifact``, so a failed
command leaves no partial file under an artifact's name.  A command
takes one flag per setting it reads, its text parsed by
``config.parsers``: ``gen`` per parameter of
``generate_synthetic``, with its default; the others per key of their
set in ``config`` (``CONFIG_KEYS``, ``SWEEP_KEYS`` or ``SCORE_KEYS``;
``--step0-epochs`` sets ``step0_epochs``).  Flags override the
``--config`` file, which may hold any key and is checked whole.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import __version__
from .config import CONFIG_KEYS, PARSERS, SCORE_KEYS, SWEEP_KEYS, RunConfig, load_config, override_config, parse_dims
from .config import parsers
from .decorrelate import DecorrMethod
from .errors import SvdnError, ValidationError, check_int, open_artifact, write_csv
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
    RriTrace,
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


def _settings(args) -> RunConfig:
    """The run config: the command's flags over the ``--config`` file, with its dataset key checked."""
    flags = {key: getattr(args, key) for key in args.keys}  # None if not given, which override_config skips
    cfg = override_config(load_config(args.config) if args.config else RunConfig(), **flags)
    if args.dataset_use == "required" and not cfg.dataset:
        raise ValidationError("config key 'dataset' is required (set it in the config file or pass --dataset)")
    if cfg.dataset and not Path(cfg.dataset).is_file():
        raise ValidationError(f"config key 'dataset': no such file {cfg.dataset!r}")
    return cfg


def _run(args) -> int:
    if args.dataset_use is None:  # gen: its settings are generate_synthetic's arguments
        cfg, data = {name: getattr(args, name) for name in args.keys}, None
        seed, config = cfg["seed"], {name: value for name, value in cfg.items() if name != "seed"}
    else:
        cfg = _settings(args)
        data = load_dataset(cfg.dataset) if cfg.dataset else None
        if data is not None:
            require_queries(data, f"dataset {cfg.dataset}")  # every command given data scores retrieval
        seed, config = cfg.seed, {key: getattr(cfg, key) for key in args.keys}
    out = Path(args.out)
    steps = args.work(args, out, cfg, data)
    next(steps)  # the command makes and checks its inputs, so a rejection, as an argparse one, makes no --out
    out.mkdir(parents=True, exist_ok=True)
    arguments = {name: getattr(args, name) for name in args.arguments}
    manifest = dict(
        tool="svdn", version=__version__, command=args.command, seed=seed, config=config, arguments=arguments,
        artifacts=args.artifacts,
    )
    with open_artifact(out / "manifest.json") as fh:  # a DecorrMethod is recorded by its name
        fh.write(json.dumps(manifest, indent=2, sort_keys=True, default=lambda method: method.value) + "\n")

    next(steps, None)  # the command's writes
    missing = [rel for rel in args.artifacts.values() if not (out / rel).exists()]
    if missing:
        print(f"error: missing artifacts after run: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


def cmd_gen(args, out, cfg, data):
    data = generate_synthetic(**cfg)
    yield
    path = out / args.artifacts["dataset"]
    save_dataset(data, path)
    print(f"wrote {path}: {data.features.shape[0]} rows, dim {data.dim}")


def cmd_train(args, out, cfg, data):
    model = initial_model(data, cfg)
    yield
    written = RriTrace()

    def write(record, model):  # the run's one writer per phase: its checkpoint, then trace.csv so far
        save_checkpoint(model, out / checkpoint_name(record.rri_index, record.phase))
        written.records.append(record)
        write_trace(written, out / args.artifacts["trace"])

    model, _ = train_step0(model, data, cfg, on_record=write)
    model, trace = run_rri(model, data, cfg, on_record=write)
    save_checkpoint(model, out / args.artifacts["final_checkpoint"])
    last = written.records[-1]
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


def cmd_eval(args, out, cfg, data):
    model = _load_model(args.ckpt, cfg, data)
    yield
    qf = model.extract_features(data.query_features, cfg.feature)
    gf = model.extract_features(data.gallery_features, cfg.feature)
    if args.l2_normalize:
        qf, gf = l2_normalize(qf), l2_normalize(gf)
    report = evaluate_features(data, qf, gf)
    write_report(report, out / args.artifacts["report"])
    print(format_report(report), end="")


def _collect_checkpoints(paths: list[str]) -> list[Path]:
    """The checkpoint files in training order (``parse_checkpoint_name``).
    A directory contributes its ``CHECKPOINT_GLOB`` files and must hold one;
    a file reached twice (by ``Path.resolve``) is rejected."""
    found: dict[Path, Path] = {}
    for p in paths:
        path = Path(p)
        files = list(path.glob(CHECKPOINT_GLOB)) if path.is_dir() else [path]
        if not files:
            raise ValidationError(f"no {CHECKPOINT_GLOB} checkpoint in directory {p}")
        for file in files:
            if file.resolve() in found:
                raise ValidationError(f"checkpoint {file} is given more than once; each is scored once")
            found[file.resolve()] = file
    return sorted(found.values(), key=lambda path: parse_checkpoint_name(path.name)[2])


def cmd_diagnose(args, out, cfg, data):
    models = [(path, _load_model(path, cfg, data)) for path in _collect_checkpoints(args.checkpoints)]
    yield
    rows = []
    for path, model in models:
        score = s_of_w(model.eigenlayer)
        rank1, mean_ap = evaluate_model(model, data, cfg.feature) if data is not None else ("", "")
        rows.append((str(path), *parse_checkpoint_name(path.name)[:2], score, rank1, mean_ap))
        extra = f" rank1={rank1!r} map={mean_ap!r}" if data is not None else ""
        print(f"{path.name}: s_of_w={score!r}{extra}")
    write_csv(out / args.artifacts["diagnose"], ["checkpoint", "rri_index", "phase", "s_of_w", "rank1", "map"], rows)


def _methods_flag(text: str) -> list[DecorrMethod]:
    methods = [DecorrMethod.from_name(name.strip()) for name in text.split(",")]
    if repeated := [m.value for m in DecorrMethod if methods.count(m) > 1]:
        raise ValidationError(f"flag '--methods': methods {repeated} are given more than once; each is compared once")
    return methods


def _dims_flag(text: str) -> tuple[int, ...]:
    dims = tuple(check_int("flag '--dims' width", dim, 1) for dim in parse_dims("--dims", text, "flag"))
    if not dims:
        raise ValidationError("flag '--dims': expected at least one dimension")
    if repeated := sorted({dim for dim in dims if dims.count(dim) > 1}):
        raise ValidationError(f"sweep dims {repeated} are given more than once; each width is trained once")
    return dims


def cmd_compare(args, out, cfg, data):
    model = initial_model(data, cfg)
    yield
    rows = run_decorr_comparison(model, data, cfg, methods=args.methods)
    write_csv(out / args.artifacts["comparison"], ["method", "rank1", "map"], [[m.value, r.rank1, r.map] for m, r in rows])
    print("method   rank1    mAP")
    for method, r in rows:
        print(f"{method.value:<8} {r.rank1:.4f}  {r.map:.4f}")


def cmd_sweep_dim(args, out, cfg, data):
    models = [initial_model(data, replace(cfg, eigen_dim=dim)) for dim in args.dims]
    yield
    results = run_dim_sweep(models, data, cfg)
    for dim, w, wo in results:
        print(
            f"dim {dim:>4}: with-RRI mAP={w.map:.4f} rank1={w.rank1:.4f} | "
            f"without mAP={wo.map:.4f} rank1={wo.rank1:.4f}"
        )
    write_csv(
        out / args.artifacts["sweep"],
        ["dim", "map_with_rri", "map_without_rri", "rank1_with_rri", "rank1_without_rri"],
        [[dim, w.map, wo.map, w.rank1, wo.rank1] for dim, w, wo in results],
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svdn", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"svdn {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    # keys: the settings read, one flag each.  dataset_use: "required", "optional", or None for gen.
    # arguments: add_argument's flags and options of each argument that is not a setting, for the manifest.
    def command(name, work, artifacts, keys, dataset_use, summary, arguments):
        sub = subs.add_parser(name, help=summary)
        sub.add_argument("--out", default="runs", help="output directory (default: runs)")
        gen = dataset_use is None
        kind, parse, defaults = ("parameter", parsers(_GEN_DEFAULTS), _GEN_DEFAULTS) if gen else ("config key", PARSERS, {})
        if not gen:
            sub.add_argument("--config", default=None, help="path to a key=value config file")
        for key in keys:  # a config key's flag defaults to None, which leaves the --config file's value
            flag, default = _GEN_FLAGS.get(key, "--" + key.replace("_", "-")), defaults.get(key)
            doc = f"default: {default}" if gen else f"overrides config key {key}"
            sub.add_argument(flag, dest=key, type=partial(parse[key], key, kind=kind), default=default, help=doc)
        dests = tuple(sub.add_argument(flag, **options).dest for flag, options in arguments.items())
        sub.set_defaults(work=work, artifacts=artifacts, keys=keys, dataset_use=dataset_use, parser=sub, arguments=dests)

    command(
        "gen", cmd_gen, {"dataset": "dataset.csv"}, tuple(_GEN_DEFAULTS), None, "write a synthetic retrieval dataset", {}
    )

    command(
        "train",
        cmd_train,
        {"trace": "trace.csv", "step0_checkpoint": checkpoint_name(0, PHASE_STEP0), "final_checkpoint": FINAL_CHECKPOINT},
        CONFIG_KEYS,
        "required",
        "step 0 plus restraint/relaxation iterations",
        {},
    )

    command(
        "eval", cmd_eval, {"report": "report.csv"}, SCORE_KEYS, "required", "score a checkpoint against a dataset",
        {"--ckpt": dict(required=True), "--l2-normalize": dict(action="store_true", help="cosine-style scoring")},
    )

    command(
        "diagnose", cmd_diagnose, {"diagnose": "diagnose.csv"}, SCORE_KEYS, "optional",
        "print the correlation score per checkpoint",
        {"checkpoints": dict(nargs="+", help="checkpoint files or directories")},
    )

    command(
        "compare", cmd_compare, {"comparison": "comparison.csv"}, CONFIG_KEYS, "required",
        "train once per replacement method",
        {"--methods": dict(type=_methods_flag, default=None, help="comma-separated subset of Orig,US,U,UVt,QD")},
    )

    command(
        "sweep-dim", cmd_sweep_dim, {"sweep": "sweep_dim.csv"}, SWEEP_KEYS, "required", "train across embedding widths",
        {"--dims": dict(type=_dims_flag, default="4,8,16,32,64,128", help="comma-separated eigenlayer widths")},
    )
    return parser


def main(argv=None) -> int:
    try:
        # a flag's type raises ValidationError, which argparse passes on, so --out is not made
        args, unread = _build_parser().parse_known_args(argv)
        if unread:  # exits 2 with the usage of the command, which lists the flags it takes
            args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
        return _run(args)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SvdnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
