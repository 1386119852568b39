"""Command-line frontend for every pipeline.

Subcommands: gen-fixtures, stats, anchors, encode-labels, decode-labels,
reconstruct, teds, coco-eval, misalign, kernels-check. All file outputs are
byte-reproducible for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import stat
import sys

import numpy as np

from . import formats
from .anchors import DEFAULT_ASPECT_RATIOS, anchor_coverage, dataset_stats, generate_anchors
from .cocoeval import evaluate_corpus
from .errors import HtmlParseError, SchemaError, TsrkitError
from .fixtures import FixtureSpec, generate_fixtures
from .labels import AnnotationSet, LabelMode, decode_pseudo, encode_pseudo
from .misalign import misalignment_report, parse_perturbation_spec
from .reconstruct import build_grid, grid_to_html
from .teds import corpus_teds, parse_table_html


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _multi_label_sets(corpus: formats.CorpusFile) -> list[AnnotationSet]:
    sets = corpus.annotation_sets()
    if corpus.label_mode is LabelMode.SINGLE:
        sets = [decode_pseudo(ann) for ann in sets]
    return sets


_NOT_A_FILE_NAME = "image id is not a file name"


def _name_max(directory: str) -> int:
    """The longest file name, in bytes, that ``directory`` takes; 255 where the system does not say."""
    try:
        limit = os.pathconf(directory, "PC_NAME_MAX")
    except (AttributeError, ValueError, OSError):  # no pathconf, or no such limit here
        return 255
    return limit if limit > 0 else 255


def _html_path(directory: str, image_id: str, name_max: int) -> str | None:
    """``{image_id}.html`` in ``directory``, or None when the id is not one path
    component or makes a name longer than ``name_max`` bytes."""
    separators = {"/", os.sep, os.altsep} - {None}
    if image_id in (".", "..") or "\0" in image_id or any(sep in image_id for sep in separators):
        return None
    name = f"{image_id}.html"
    return None if len(name.encode("utf-8")) > name_max else os.path.join(directory, name)


def _write_csv(path: str, header: list[str], rows: list[list[str]]):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    formats.atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_gen_fixtures(args) -> int:
    spec = FixtureSpec(
        n_tables=args.tables,
        seed=args.seed,
        span_probability=args.span_probability,
        header_probability=args.header_probability,
    )
    gt, det = generate_fixtures(spec)
    gt_path = f"{args.output}.gt.json"
    det_path = f"{args.output}.pred.json"
    formats.save(gt, gt_path)
    formats.save(det, det_path)
    print(f"wrote {gt_path}")
    print(f"wrote {det_path}")
    return 0


def cmd_stats(args) -> int:
    corpus = formats.load_ground_truth(args.ground_truth)
    stats = dataset_stats(corpus.annotation_sets())
    for line in stats.format_lines():
        print(line)
    if args.csv:
        rows = [
            [str(bucket), str(count)]
            for bucket, count in stats.folded_aspect_ratio_histogram.items()
        ]
        _write_csv(args.csv, ["ratio_bucket", "count"], rows)
        print(f"wrote {args.csv}")
    return 0


def cmd_anchors(args) -> int:
    corpus = formats.load_ground_truth(args.ground_truth)
    if not any(img.instances for img in corpus.images):
        _fail("ground truth contains no boxes")
    gt_boxes = np.concatenate([img.instances.boxes for img in corpus.images])
    ratios = tuple(sorted(args.ratios))
    width = max(img.width for img in corpus.images)
    height = max(img.height for img in corpus.images)
    anchors = generate_anchors(ratios, width, height)
    report = anchor_coverage(anchors, gt_boxes, ratios, width, height)
    print(f"ratios = {list(ratios)}")
    print(f"anchors = {anchors.shape[0]}")
    for line in report.format_lines():
        print(line)
    return 0


def _transform_labels(args, encode: bool) -> int:
    corpus = formats.load_ground_truth(args.input) if encode else formats.load_any(args.input)
    expected = LabelMode.MULTI if encode else LabelMode.SINGLE
    if corpus.label_mode is not expected:
        _fail(f"input must be label_mode={expected.value}")
    transform = encode_pseudo if encode else decode_pseudo
    for image, ann in zip(corpus.images, corpus.annotation_sets()):
        image.instances = transform(ann).instances
    corpus.label_mode = LabelMode.SINGLE if encode else LabelMode.MULTI
    formats.save(corpus, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_encode_labels(args) -> int:
    return _transform_labels(args, encode=True)


def cmd_decode_labels(args) -> int:
    return _transform_labels(args, encode=False)


def cmd_reconstruct(args) -> int:
    sets = _multi_label_sets(formats.load_detections(args.predictions))
    os.makedirs(args.output, exist_ok=True)
    name_max = _name_max(args.output)
    failures = []
    for ann in sets:
        path = _html_path(args.output, ann.image_id, name_max)
        if path is None:
            failures.append((ann.image_id, _NOT_A_FILE_NAME))
            continue
        try:
            html = grid_to_html(build_grid(ann))
        except TsrkitError as exc:
            failures.append((ann.image_id, str(exc)))
            continue
        formats.atomic_write_text(path, html)
    print(f"wrote {len(sets) - len(failures)} table(s) to {args.output}")
    for image_id, message in failures:
        print(f"failed {image_id}: {message}", file=sys.stderr)
    return 1 if failures else 0


def cmd_teds(args) -> int:
    corpus = formats.load_ground_truth(args.ground_truth)
    trees = corpus.trees_by_image()
    missing_html = [img.image_id for img in corpus.images if img.image_id not in trees]
    if missing_html:
        _fail(f"ground truth without html for: {missing_html[:5]}")
    # a mistyped directory would otherwise score every table 0
    if not stat.S_ISDIR(os.stat(args.predictions_dir).st_mode):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), args.predictions_dir)
    name_max = _name_max(args.predictions_dir)
    scored_zero = []  # one stderr line per prediction that scores 0, in id order

    def pairs():
        for image_id in sorted(trees):
            path, tree = _html_path(args.predictions_dir, image_id, name_max), None
            if path is None:
                scored_zero.append(f"failed {image_id}: {_NOT_A_FILE_NAME}")
            elif not os.path.exists(path):
                scored_zero.append(f"missing {image_id}")
            else:
                try:
                    tree = parse_table_html(formats.read_text(path))
                except (SchemaError, HtmlParseError) as exc:
                    scored_zero.append(f"failed {image_id}: {exc}")
                except OSError as exc:  # a directory, or no permission to read
                    scored_zero.append(f"failed {image_id}: {path}: {exc.strerror or exc}")
            yield tree, trees[image_id]

    for line in corpus_teds(pairs()).format_lines():
        print(line)
    for line in scored_zero:
        print(f"prediction {line}", file=sys.stderr)
    return 0


def cmd_coco_eval(args) -> int:
    predictions = formats.load_detections(args.predictions)
    preds = _multi_label_sets(predictions)
    gts = _multi_label_sets(formats.load_ground_truth(args.ground_truth))
    try:
        report = evaluate_corpus(
            {ann.image_id: ann.instances for ann in preds},
            {ann.image_id: ann.instances for ann in gts},
        )
    except ValueError:
        # The check names no detection; the file's first one without a score is the cause.
        for i, image in enumerate(predictions.images):
            for j, inst in enumerate(image.instances):
                if inst.score is None:
                    raise SchemaError(
                        f"{args.predictions}: $.images[{i}].instances[{j}]: prediction without confidence"
                    ) from None
        raise
    for line in report.format_lines():
        print(line)
    return 0


def cmd_misalign(args) -> int:
    corpus = formats.load_ground_truth(args.ground_truth)
    specs = [parse_perturbation_spec(s) for s in args.spec]
    report = misalignment_report(corpus.annotation_sets(), corpus.trees_by_image(), specs)
    for line in report.format_lines():
        print(line)
    if args.csv:
        rows = [
            [row.label, f"{row.mean_ap:.6f}", f"{row.teds_overall:.6f}"]
            for row in report.rows
        ]
        _write_csv(args.csv, ["perturbation", "mAP", "TEDS"], rows)
        print(f"wrote {args.csv}")
    return 0


def cmd_kernels_check(args) -> int:
    from .kernels_selftest import run_checks

    results = run_checks()
    for result in results:
        print(result.format_line())
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsrkit",
        description="Table structure toolkit: reconstruction and evaluation pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixtures", help="generate a synthetic corpus")
    p.add_argument("-o", "--output", required=True, help="output path prefix")
    p.add_argument("--tables", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--span-probability", type=float, default=0.5)
    p.add_argument("--header-probability", type=float, default=0.6)
    p.set_defaults(func=cmd_gen_fixtures)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("ground_truth")
    p.add_argument("--csv", help="write the folded aspect-ratio histogram")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("anchors", help="anchor coverage for a ratio list")
    p.add_argument("ground_truth")
    p.add_argument(
        "--ratios",
        type=float,
        nargs="+",
        default=list(DEFAULT_ASPECT_RATIOS),
        help="anchor aspect ratios (height/width)",
    )
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("encode-labels", help="multi-label to single-label ground truth")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_encode_labels)

    p = sub.add_parser(
        "decode-labels",
        help="single-label detections or ground truth to multi-label",
        description="The first score, content_bbox or html in the file decides its kind: "
        "a score means detections, the other two ground truth.",
    )
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decode_labels)

    p = sub.add_parser("reconstruct", help="detections to one HTML file per image")
    p.add_argument("predictions")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("teds", help="structure similarity of predicted HTML")
    p.add_argument("predictions_dir")
    p.add_argument("ground_truth")
    p.set_defaults(func=cmd_teds)

    p = sub.add_parser("coco-eval", help="detection AP report")
    p.add_argument("predictions")
    p.add_argument("ground_truth")
    p.set_defaults(func=cmd_coco_eval)

    p = sub.add_parser("misalign", help="metric divergence under perturbations")
    p.add_argument("ground_truth")
    p.add_argument(
        "--spec",
        action="append",
        required=True,
        help="mode[:magnitude][:classes], e.g. dilate:2 snap merge:row",
    )
    p.add_argument("--csv", help="write report rows as CSV")
    p.set_defaults(func=cmd_misalign)

    p = sub.add_parser("kernels-check", help="run the numerical kernel invariants")
    p.set_defaults(func=cmd_kernels_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A command keeps its corpus alive to the end and builds no reference
    # cycles in proportion to it, so the cyclic collector would only rescan it.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except TsrkitError as exc:
        _fail(f"{type(exc).__name__}: {exc}")
    except OSError as exc:
        _fail(f"{exc.filename or ''}: {exc.strerror or exc}")
    except ValueError as exc:
        _fail(str(exc))
    finally:
        if was_enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
