"""Command-line front end.

    lrnn train    --data X --arch 784,100 --algo shallow --iters 6000 \
                  --batch 100 --seed 0 --out model.lrnn --curve curve.csv
    lrnn eval     --model model.lrnn --data X [--dump recon.csv]
    lrnn simulate --model model.lrnn --data X --index 0 --events 1000000 \
                  --observe-every 1000 --seed 0 --out sim.csv

Model files are binary (LRNN2, see :mod:`lrnn.model_io`); ``--curve``,
``--dump`` and the simulate ``--out`` stay CSV text.

A CSV ``--data`` table is parsed once per content and settings, and later
commands read the parse back from ``$XDG_CACHE_HOME/lrnn/`` (the cache is
described in :mod:`lrnn.data`).  A rerun writes the same bytes at the same
BLAS thread count (``OPENBLAS_NUM_THREADS``); another count can change a
model's last bits.

Exit codes are decided in one place, :func:`main`, which prints one line
for a failure:

- 0 success, a dead-network simulation included (its estimates are 0);
- 1 usage error: a bad flag value, contradicting flags, an output flag
  naming the file of ``--data``, ``--model`` or another output, or a file
  that ``--data`` leads to, or an event budget that yields no observation;
- 2 data error: a data or model file that cannot be used (wrong width,
  ``--index`` out of range), and any file that cannot be read or written;
- 3 numeric failure: training, compiling or simulating the model failed.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from . import data as data_mod
from .model import LrnnModel, _check_attributes, _encode_dims, _layers, dataset_error, forward
from .model import rows_per_chunk
from .model_io import load_model, save_model

# ``training`` and ``simulation`` are imported by the commands that run them,
# so each command loads only its own modules.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Flags that each parse but cannot be used together (exit 1)."""


class DataError(Exception):
    """An input file that was read but cannot be used (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset path or JSON manifest")
    p.add_argument(
        "--format",
        choices=_FORMATS,
        type=_choice(_FORMATS),
        default=None,
        help="container format; default: manifest for *.json, else guessed from suffix",
    )
    p.add_argument("--name", default=None, help="dataset name inside a manifest")
    p.add_argument("--delimiter", type=_one_char, default=",", help="csv delimiter (default ,)")
    p.add_argument("--header", action="store_true", help="csv file has a header row")
    p.add_argument("--label-column", type=_int, default=None, help="csv column to drop")


def _flag_type(kind: str, convert, test=lambda value: True):
    """An argparse ``type``: ``convert`` the text, then refuse it unless ``test`` holds.

    A refusal reads as argparse words its own, "invalid <kind> value: '<text>'",
    with the text quoted by :func:`lrnn.data._quote`, so a long flag is cut short.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if test(value):
                return value
        raise argparse.ArgumentTypeError(f"invalid {kind} value: {data_mod._quote(text)}")

    return parse


def _choice(names: list[str]):
    """An argparse ``type`` for ``choices=names`` that refuses as argparse does, text quoted."""

    def parse(text: str):
        if text in names:
            return text
        choices = ", ".join(map(repr, names))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {data_mod._quote(text)} (choose from {choices})"
        )

    return parse


_FORMATS = ["idx", "cifar", "csv", "manifest"]
_ALGOS = ["shallow", "greedy", "joint"]
_int = _flag_type("int", int)
_positive_int = _flag_type("positive integer", int, lambda v: v >= 1)
_non_negative_int = _flag_type("non-negative integer", int, lambda v: v >= 0)
_non_negative_float = _flag_type("non-negative number", float, lambda v: 0.0 <= v < math.inf)
_one_char = _flag_type("one-character", str, data_mod._MANIFEST_SETTINGS["delimiter"][1])
_arch = _flag_type("layer sizes", lambda text: _encode_dims([int(s) for s in text.split(",")]))


def _read(load, *args, **kwargs):
    """Call a file loader, or a check of what it read; a ``ValueError`` is a data error."""
    try:
        return load(*args, **kwargs)
    except ValueError as e:
        raise DataError(e) from e


def _refuse_aliased_outputs(args) -> None:
    """Refuse an output that resolves to the same file as an input or an earlier output.

    The inputs are ``--data``, ``--model`` and the files ``--data`` leads to, as
    ``load_dataset`` finds them; a source it would refuse leads to none here.
    """
    seen: dict[str, str] = {}
    inputs = [(args.data, "the --data file"), (getattr(args, "model", None), "the --model file")]
    try:
        path, fmt, entry, _ = data_mod._resolve(args.data, args.format, args.name, {})
        files = [entry.get("path"), *(path if fmt == "cifar" else [])]
        inputs += [(file, "a file that --data reads") for file in files]
    except (OSError, ValueError):
        pass
    for path, what in inputs:
        if path is not None:
            seen.setdefault(os.path.realpath(path), what)
    for flag in ("out", "curve", "dump"):
        path = getattr(args, flag, None)
        if path is not None:
            real = os.path.realpath(path)
            if real in seen:
                raise UsageError(f"--{flag} {data_mod._quote(path)} names {seen[real]}")
            seen[real] = f"the --{flag} file"


def _load_data(args, width: int) -> data_mod.Dataset:
    """Load ``--data``, refusing it unless it has ``width`` attributes."""
    dataset = _read(
        data_mod.load_dataset,
        args.data,
        args.format,
        name=args.name,
        delimiter=args.delimiter,
        has_header=args.header,
        label_column=args.label_column,
    )
    _read(_check_attributes, "dataset", dataset.attribute_count, width)
    return dataset


def cmd_train(args) -> None:
    from .training import TrainConfig, train

    dims = args.arch
    if args.algo == "shallow" and len(dims) != 2:
        raise UsageError("--algo shallow needs --arch V,H")
    if args.iters is None and args.epochs is None:
        raise UsageError("set --iters and/or --epochs")
    if args.full_error_every and not args.curve:
        raise UsageError("--full-error-every needs --curve")
    dataset = _load_data(args, dims[0])
    cfg = TrainConfig(
        batch_size=args.batch,
        max_iterations=args.iters,
        max_epochs=args.epochs,
        seed=args.seed,
        rel_tol=args.rel_tol,
        shuffle=args.shuffle,
    )

    full_rows: dict[int, float] = {}
    observer = None
    if args.full_error_every:
        every = args.full_error_every

        def observer(iteration, _err, model):
            if iteration % every == 0:
                full_rows[iteration] = dataset_error(model, dataset)

    algo = "greedy" if args.algo == "greedy" else "joint"  # shallow is joint at depth 1
    model, report = train(dataset, dims, cfg, algo, observer)
    save_model(model, args.out)
    if args.curve:
        tagged = bool(args.full_error_every)
        try:
            with open(args.curve, "w") as f:
                f.write("iter,error,kind\n" if tagged else "iter,error\n")
                for i, err in report.error_curve:
                    f.write(f"{i},{err:.17g},batch\n" if tagged else f"{i},{err:.17g}\n")
                    if i in full_rows:
                        f.write(f"{i},{full_rows[i]:.17g},full\n")
        except OSError:
            os.remove(args.out)  # a failed command leaves no model behind
            raise
    print(f"final full-dataset error: {report.final_full_error:.17g}")
    print(f"dead visible units: {report.dead_units} of {model.visible_dim}")
    print(f"iterations: {len(report.error_curve)}  wall time: {report.wall_time:.2f}s")


def _load_model_and_data(args) -> tuple[LrnnModel, data_mod.Dataset]:
    model = _read(load_model, args.model)
    return model, _load_data(args, model.visible_dim)


def cmd_eval(args) -> None:
    model, dataset = _load_model_and_data(args)
    err = dataset_error(model, dataset)
    if args.dump:
        with open(args.dump, "w") as f:
            for chunk in data_mod.iter_minibatches(dataset, rows_per_chunk(*model.encode_dims)):
                for q in _layers(model, chunk):
                    pass  # only the latest layer is kept
                np.savetxt(f, q, fmt="%.17g", delimiter=",")
    print(f"reconstruction error: {err:.17g}")


def cmd_simulate(args) -> None:
    from .simulation import compare, compile_sim, run

    if args.events < args.burn_in + args.observe_every:
        raise UsageError(
            f"--events {args.events} yields no observation "
            f"(--burn-in {args.burn_in} + --observe-every {args.observe_every} needed)"
        )
    model, dataset = _load_model_and_data(args)
    if not 0 <= args.index < dataset.instance_count:
        raise DataError(
            f"--index {args.index} out of range "
            f"(dataset has {dataset.instance_count} instances)"
        )
    instance = dataset.rows(args.index)
    numeric = forward(model, instance.reshape(1, -1))
    net = compile_sim(model, instance)
    est = run(net, args.events, args.observe_every, seed=args.seed, burn_in=args.burn_in)
    if est.observation_count == 0:
        print("dead network: no possible event: all arrival rates are zero and no neuron "
              "is active; all estimates are 0", file=sys.stderr)
    diffs = compare(est, numeric)
    numeric_layers = [a.ravel() for a in [numeric.q_hat, *numeric.q_enc, *numeric.q_dec]]
    if args.out:
        with open(args.out, "w") as f:
            f.write("layer,neuron,q_sim,q_num,abs_diff\n")
            for name, sim_q, num_q in zip(est.layer_names, est.per_layer(), numeric_layers):
                for neuron, (s, n) in enumerate(zip(sim_q, num_q)):
                    f.write(f"{name},{neuron},{s:.17g},{n:.17g},{abs(s - n):.17g}\n")
    for d in diffs:
        print(f"{d.layer}: max abs diff {d.max_abs_diff:.6g}  mean abs diff {d.mean_abs_diff:.6g}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lrnn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[], help="train an autoencoder")
    _add_data_flags(p)
    p.add_argument("--arch", type=_arch, required=True, help="layer sizes, e.g. 784,100")
    p.add_argument("--algo", choices=_ALGOS, type=_choice(_ALGOS), default="shallow")
    p.add_argument("--batch", type=_positive_int, default=100)
    p.add_argument("--iters", type=_positive_int, default=None, help="total minibatch updates")
    p.add_argument("--epochs", type=_positive_int, default=None, help="full passes over the data")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument(
        "--rel-tol", type=_non_negative_float, default=0.0, help="early-stop relative tolerance"
    )
    p.add_argument("--shuffle", action="store_true", help="shuffle batches each epoch")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--curve", default=None, help="write iter,error CSV here")
    p.add_argument(
        "--full-error-every",
        type=_positive_int,
        default=None,
        metavar="K",
        help="add a whole-dataset error row to the curve every K iterations",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="reconstruction error of a model on a dataset")
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dump", default=None, help="write the reconstructed matrix as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="spiking-event simulation of one instance")
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--index", type=_int, default=0, help="instance row to simulate")
    p.add_argument("--events", type=_positive_int, required=True)
    p.add_argument("--observe-every", type=_positive_int, default=1000)
    p.add_argument("--burn-in", type=_non_negative_int, default=0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default=None, help="comparison CSV (layer,neuron,q_sim,q_num,abs_diff)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    """Run one command; the only place a failure becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        _read(_refuse_aliased_outputs, args)  # a path with a NUL byte is a data error
        args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def entry() -> None:
    """Console entry point: :func:`main` in a process that exits after it.

    The objects the imports made live until exit, so they are moved out of
    the collector's generations (``gc.freeze``): neither the run's
    collections nor the one at interpreter exit walk them again.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
