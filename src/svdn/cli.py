"""Command-line front end.

Subcommands: ``gen`` (write a synthetic dataset), ``train`` (step 0 plus
restraint/relaxation iterations, with checkpoints and a trace CSV),
``eval`` (score a checkpoint against a dataset), ``diagnose`` (print the
correlation score of checkpoints), ``compare`` (train once per
replacement method), and ``sweep-dim`` (train across embedding widths
with and without the iteration scheme).

Every run writes ``manifest.json`` into the output directory before any
work starts, recording the tool version, the seed, the effective config,
and the artifact paths the run is about to produce; the command exits 0
only if all of them exist afterwards.  Flags mirror config keys
one-to-one and take precedence over the config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig, load_config, override_config
from .decorrelate import DecorrMethod
from .errors import SvdnError, ValidationError
from .evaluation import (
    evaluate_features,
    format_report,
    generate_synthetic,
    l2_normalize,
    load_dataset,
    save_dataset,
    write_report,
)
from .network import build_model, load_checkpoint, save_checkpoint
from .trainer import (
    RriTrace,
    evaluate_model,
    run_baseline,
    run_decorr_comparison,
    run_rri,
    train_step0,
    training_arrays,
    write_trace,
)
from .diagnostics import s_of_w

_CKPT_NAME = re.compile(r"ckpt_rri(\d+)_([a-z0-9]+)\.svdn$")
_PHASE_ORDER = {"step0": 0, "decorrelate": 1, "restraint": 2, "relaxation": 3}


def _write_manifest(out: Path, command: str, seed: int, config: dict, artifacts: dict[str, str]) -> None:
    manifest = {
        "tool": "svdn",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "artifacts": artifacts,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _verify_artifacts(out: Path, artifacts: dict[str, str]) -> int:
    missing = [rel for rel in artifacts.values() if not (out / rel).exists()]
    if missing:
        print(f"error: missing artifacts after run: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {
        key: getattr(args, key)
        for key in (
            "step0_epochs",
            "restraint_epochs",
            "relaxation_epochs",
            "max_rri",
            "lr_step0",
            "lr_restraint",
            "lr_relaxation",
            "batch_size",
            "epsilon_s",
            "hidden_dims",
            "eigen_dim",
            "feature",
            "dataset",
        )
        if hasattr(args, key)
    }
    if args.seed is not None:
        overrides["seed"] = args.seed
    return override_config(cfg, **overrides)


def _parse_dims_flag(value: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p.strip()) for p in value.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}") from None
    if not dims:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return dims


def _require_dataset(cfg: RunConfig):
    if not cfg.dataset:
        raise ValidationError("config key 'dataset' is required (set it in the config file or pass --dataset)")
    return load_dataset(cfg.dataset)


def cmd_gen(args) -> int:
    out = _prepare_out(args)
    config = {
        "identities": args.ids,
        "cameras": args.cameras,
        "samples_per_id_camera": args.samples,
        "dim": args.dim,
        "noise": args.noise,
        "camera_scale": args.camera_scale,
    }
    seed = args.seed if args.seed is not None else 0
    artifacts = {"dataset": "dataset.csv"}
    _write_manifest(out, "gen", seed, config, artifacts)
    dataset = generate_synthetic(seed=seed, **config)
    save_dataset(dataset, out / "dataset.csv")
    print(f"wrote {out / 'dataset.csv'}: {dataset.features.shape[0]} rows, dim {dataset.dim}")
    return _verify_artifacts(out, artifacts)


def cmd_train(args) -> int:
    out = _prepare_out(args)
    cfg = _resolve_config(args)
    data = _require_dataset(cfg)
    schedule = cfg.schedule
    artifacts = {
        "trace": "trace.csv",
        "step0_checkpoint": "ckpt_rri0_step0.svdn",
        "final_checkpoint": "ckpt_final.svdn",
    }
    _write_manifest(out, "train", schedule.seed, cfg.to_dict(), artifacts)

    _, _, c = training_arrays(data)
    model = build_model(data.dim, cfg.hidden_dims, cfg.eigen_dim, c, schedule.seed)
    model, step0_record = train_step0(model, data, schedule, cfg.feature, out_dir=out)
    model, trace = run_rri(model, data, schedule, feature=cfg.feature, out_dir=out)
    full = RriTrace(records=[step0_record, *trace.records], converged=trace.converged)
    write_trace(full, out / "trace.csv")
    save_checkpoint(model, out / "ckpt_final.svdn")

    last = full.records[-1]
    print(f"completed {last.rri_index} iteration(s), converged={trace.converged}")
    print(f"final s_of_w={last.s_of_w:.6f} rank1={last.rank1:.4f} mAP={last.map:.4f}")
    return _verify_artifacts(out, artifacts)


def cmd_eval(args) -> int:
    out = _prepare_out(args)
    cfg = _resolve_config(args)
    data = _require_dataset(cfg)
    artifacts = {"report": "report.csv"}
    _write_manifest(out, "eval", cfg.schedule.seed, cfg.to_dict(), artifacts)

    model = load_checkpoint(args.ckpt)
    qf = model.extract_features(data.query_features, cfg.feature)
    gf = model.extract_features(data.gallery_features, cfg.feature)
    if args.l2_normalize:
        qf, gf = l2_normalize(qf), l2_normalize(gf)
    report = evaluate_features(data, qf, gf)
    write_report(report, out / "report.csv")
    print(format_report(report), end="")
    return _verify_artifacts(out, artifacts)


def _collect_checkpoints(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            found.extend(sorted(path.glob("ckpt_*.svdn")))
        else:
            found.append(path)
    def sort_key(path: Path):
        m = _CKPT_NAME.search(path.name)
        if m:
            return (0, int(m.group(1)), _PHASE_ORDER.get(m.group(2), 9), path.name)
        return (1, 0, 0, path.name)
    return sorted(found, key=sort_key)


def cmd_diagnose(args) -> int:
    out = _prepare_out(args)
    artifacts = {"diagnose": "diagnose.csv"}
    cfg = _resolve_config(args)
    _write_manifest(out, "diagnose", cfg.schedule.seed, cfg.to_dict(), artifacts)
    data = load_dataset(cfg.dataset) if cfg.dataset else None

    rows = []
    for path in _collect_checkpoints(args.checkpoints):
        model = load_checkpoint(path)
        score = s_of_w(model.eigenlayer).value
        m = _CKPT_NAME.search(path.name)
        rri_index = m.group(1) if m else ""
        phase = m.group(2) if m else ""
        rank1 = mean_ap = ""
        if data is not None:
            r1, ap = evaluate_model(model, data, cfg.feature)
            rank1, mean_ap = repr(r1), repr(ap)
        rows.append((str(path), rri_index, phase, repr(score), rank1, mean_ap))
        extra = f" rank1={rank1} map={mean_ap}" if data is not None else ""
        print(f"{path.name}: s_of_w={score!r}{extra}")

    with open(out / "diagnose.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["checkpoint", "rri_index", "phase", "s_of_w", "rank1", "map"])
        writer.writerows(rows)
    return _verify_artifacts(out, artifacts)


def cmd_compare(args) -> int:
    out = _prepare_out(args)
    cfg = _resolve_config(args)
    data = _require_dataset(cfg)
    methods = [DecorrMethod.from_name(name) for name in args.methods.split(",")] if args.methods else None
    artifacts = {"comparison": "comparison.csv"}
    _write_manifest(out, "compare", cfg.schedule.seed, cfg.to_dict(), artifacts)

    rows = run_decorr_comparison(
        data, cfg.schedule, methods=methods, hidden_dims=cfg.hidden_dims, eigen_dim=cfg.eigen_dim, feature=cfg.feature
    )
    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "rank1", "map"])
        for row in rows:
            writer.writerow([row.method.value, repr(row.rank1), repr(row.map)])
    print("method   rank1    mAP")
    for row in rows:
        print(f"{row.method.value:<8} {row.rank1:.4f}  {row.map:.4f}")
    return _verify_artifacts(out, artifacts)


def cmd_sweep_dim(args) -> int:
    out = _prepare_out(args)
    cfg = _resolve_config(args)
    data = _require_dataset(cfg)
    dims = args.dims
    artifacts = {"sweep": "sweep_dim.csv"}
    _write_manifest(out, "sweep-dim", cfg.schedule.seed, cfg.to_dict(), artifacts)

    n_backbone_out = cfg.hidden_dims[-1]
    results = []
    for dim in dims:
        if dim > n_backbone_out:
            raise ValidationError(
                f"sweep dim {dim} exceeds the backbone output width {n_backbone_out}; raise hidden_dims"
            )
        _, _, c = training_arrays(data)
        model = build_model(data.dim, cfg.hidden_dims, dim, c, cfg.schedule.seed)
        model, _ = train_step0(model, data, cfg.schedule, cfg.feature)
        with_model, trace = run_rri(model.copy(), data, cfg.schedule, feature=cfg.feature)
        n_rri = trace.records[-1].rri_index
        _, base_record = run_baseline(model.copy(), data, cfg.schedule, n_rri, cfg.feature)
        with_record = trace.records[-1]
        results.append((dim, with_record.map, base_record.map, with_record.rank1, base_record.rank1))
        print(
            f"dim {dim:>4}: with-RRI mAP={with_record.map:.4f} rank1={with_record.rank1:.4f} | "
            f"without mAP={base_record.map:.4f} rank1={base_record.rank1:.4f}"
        )

    with open(out / "sweep_dim.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dim", "map_with_rri", "map_without_rri", "rank1_with_rri", "rank1_without_rri"])
        for dim, m_w, m_wo, r_w, r_wo in results:
            writer.writerow([dim, repr(m_w), repr(m_wo), repr(r_w), repr(r_wo)])
    return _verify_artifacts(out, artifacts)


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--step0-epochs", dest="step0_epochs", type=int, default=None)
    sub.add_argument("--restraint-epochs", dest="restraint_epochs", type=int, default=None)
    sub.add_argument("--relaxation-epochs", dest="relaxation_epochs", type=int, default=None)
    sub.add_argument("--max-rri", dest="max_rri", type=int, default=None)
    sub.add_argument("--lr-step0", dest="lr_step0", type=float, default=None)
    sub.add_argument("--lr-restraint", dest="lr_restraint", type=float, default=None)
    sub.add_argument("--lr-relaxation", dest="lr_relaxation", type=float, default=None)
    sub.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    sub.add_argument("--epsilon-s", dest="epsilon_s", type=float, default=None)
    sub.add_argument("--hidden-dims", dest="hidden_dims", type=_parse_dims_flag, default=None)
    sub.add_argument("--eigen-dim", dest="eigen_dim", type=int, default=None)
    sub.add_argument("--feature", choices=("input", "output"), default=None)
    sub.add_argument("--dataset", default=None)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="path to a key=value config file")
    common.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    common.add_argument("--out", default="runs", help="output directory (default: runs)")

    parser = argparse.ArgumentParser(prog="svdn", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"svdn {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", parents=[common], help="write a synthetic retrieval dataset")
    gen.add_argument("--ids", type=int, default=32)
    gen.add_argument("--cameras", type=int, default=4)
    gen.add_argument("--samples", type=int, default=6, help="samples per identity-camera cell")
    gen.add_argument("--dim", type=int, default=16)
    gen.add_argument("--noise", type=float, default=0.45)
    gen.add_argument("--camera-scale", dest="camera_scale", type=float, default=0.5)
    gen.set_defaults(func=cmd_gen)

    train = subs.add_parser("train", parents=[common], help="step 0 plus restraint/relaxation iterations")
    _add_config_flags(train)
    train.set_defaults(func=cmd_train)

    ev = subs.add_parser("eval", parents=[common], help="score a checkpoint against a dataset")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--l2-normalize", dest="l2_normalize", action="store_true", help="cosine-style scoring")
    _add_config_flags(ev)
    ev.set_defaults(func=cmd_eval)

    diag = subs.add_parser("diagnose", parents=[common], help="print the correlation score per checkpoint")
    diag.add_argument("checkpoints", nargs="+", help="checkpoint files or directories")
    _add_config_flags(diag)
    diag.set_defaults(func=cmd_diagnose)

    comp = subs.add_parser("compare", parents=[common], help="train once per replacement method")
    comp.add_argument("--methods", default=None, help="comma-separated subset of Orig,US,U,UVt,QD")
    _add_config_flags(comp)
    comp.set_defaults(func=cmd_compare)

    sweep = subs.add_parser("sweep-dim", parents=[common], help="train across embedding widths")
    sweep.add_argument("--dims", type=_parse_dims_flag, default=(4, 8, 16, 32, 64, 128))
    _add_config_flags(sweep)
    sweep.set_defaults(func=cmd_sweep_dim)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SvdnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
