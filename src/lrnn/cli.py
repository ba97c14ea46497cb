"""Command-line front end.

    lrnn train    --data X --arch 784,100 --algo shallow --iters 6000 \
                  --batch 100 --seed 0 --out model.lrnn --curve curve.csv
    lrnn eval     --model model.lrnn --data X [--dump recon.csv]
    lrnn simulate --model model.lrnn --data X --index 0 --events 1000000 \
                  --observe-every 1000 --seed 0 --out sim.csv

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as data_mod
from .model import LrnnModel, dataset_error, forward
from .model_io import load_model, save_model
from .simulation import DeadNetworkError, QEstimate, compare, compile_sim, run
from .steady_state import ConvergenceError
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


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
        choices=["idx", "cifar", "csv", "manifest"],
        default=None,
        help="container format; default: manifest for *.json, else guessed from suffix",
    )
    p.add_argument("--name", default=None, help="dataset name inside a manifest")
    p.add_argument("--delimiter", default=",", help="csv delimiter (default ,)")
    p.add_argument("--header", action="store_true", help="csv file has a header row")
    p.add_argument("--label-column", type=int, default=None, help="csv column to drop")


def _load_data(args) -> data_mod.Dataset:
    fmt = args.format
    path = Path(args.data)
    if fmt is None:
        if path.suffix == ".json":
            fmt = "manifest"
        elif path.suffix == ".csv":
            fmt = "csv"
        elif path.is_dir() or path.suffix == ".bin":
            fmt = "cifar"
        else:
            fmt = "idx"
    if fmt == "manifest":
        entries = data_mod.load_manifest(path)
        name = args.name
        if name is None:
            if len(entries) != 1:
                raise ValueError(
                    f"manifest {path} has {len(entries)} datasets; pick one with --name"
                )
            name = next(iter(entries))
        return data_mod.load_manifest_entry(path, name)
    if fmt == "cifar" and not path.is_dir() and "," in args.data:
        return data_mod.load_dataset(args.data.split(","), "cifar")
    return data_mod.load_dataset(
        path,
        fmt,
        delimiter=args.delimiter,
        has_header=args.header,
        label_column=args.label_column,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _parse_arch(spec: str) -> list[int]:
    try:
        dims = [int(v) for v in spec.split(",")]
    except ValueError:
        raise ValueError(f"--arch must be comma-separated integers, got {spec!r}") from None
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"--arch needs >= 2 positive sizes, got {spec!r}")
    return dims


def cmd_train(args) -> int:
    try:
        dims = _parse_arch(args.arch)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.algo == "shallow" and len(dims) != 2:
        print("error: --algo shallow needs --arch V,H", file=sys.stderr)
        return EXIT_USAGE
    if args.iters is None and args.epochs is None:
        print("error: set --iters and/or --epochs", file=sys.stderr)
        return EXIT_USAGE
    try:
        dataset = _load_data(args)
    except (OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    if dataset.attribute_count != dims[0]:
        print(
            f"data error: dataset has {dataset.attribute_count} attributes, "
            f"--arch starts with {dims[0]}",
            file=sys.stderr,
        )
        return EXIT_DATA
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
    if args.curve and args.full_error_every:
        every = args.full_error_every

        def observer(iteration, _err, model):
            if iteration % every == 0:
                full_rows[iteration] = dataset_error(model, dataset.x)

    algo = "greedy" if args.algo == "greedy" else "joint"  # shallow is joint at depth 1
    try:
        model, report = train(dataset.x, dims, cfg, algo, observer)
    except (ValueError, ConvergenceError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    save_model(model, args.out)
    if args.curve:
        with open(args.curve, "w") as f:
            if args.full_error_every:
                f.write("iter,error,kind\n")
                for i, err in report.error_curve:
                    f.write(f"{i},{err:.17g},batch\n")
                    if i in full_rows:
                        f.write(f"{i},{full_rows[i]:.17g},full\n")
            else:
                f.write("iter,error\n")
                for i, err in report.error_curve:
                    f.write(f"{i},{err:.17g}\n")
    print(f"final full-dataset error: {report.final_full_error:.17g}")
    print(f"iterations: {len(report.error_curve)}  wall time: {report.wall_time:.2f}s")
    return EXIT_OK


def _load_model_and_data(args) -> tuple[LrnnModel, data_mod.Dataset] | int:
    try:
        model = load_model(args.model)
    except (OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    try:
        dataset = _load_data(args)
    except (OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    if dataset.attribute_count != model.visible_dim:
        print(
            f"data error: dataset has {dataset.attribute_count} attributes, "
            f"model expects {model.visible_dim}",
            file=sys.stderr,
        )
        return EXIT_DATA
    return model, dataset


def cmd_eval(args) -> int:
    loaded = _load_model_and_data(args)
    if isinstance(loaded, int):
        return loaded
    model, dataset = loaded
    err = dataset_error(model, dataset.x)
    if args.dump:
        with open(args.dump, "w") as f:
            for start in range(0, dataset.instance_count, 4096):
                recon = forward(model, dataset.x[start : start + 4096]).output
                for row in recon:
                    f.write(",".join(f"{v:.17g}" for v in row) + "\n")
    print(f"reconstruction error: {err:.17g}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    loaded = _load_model_and_data(args)
    if isinstance(loaded, int):
        return loaded
    model, dataset = loaded
    if not 0 <= args.index < dataset.instance_count:
        print(
            f"data error: --index {args.index} out of range "
            f"(dataset has {dataset.instance_count} instances)",
            file=sys.stderr,
        )
        return EXIT_DATA
    instance = dataset.x[args.index]
    numeric = forward(model, instance.reshape(1, -1))
    try:
        net = compile_sim(model, instance)
    except ValueError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        est = run(net, args.events, args.observe_every, seed=args.seed, burn_in=args.burn_in)
    except DeadNetworkError as e:
        print(f"dead network: {e}; all estimates are 0", file=sys.stderr)
        est = QEstimate.zeros(net)
    except ValueError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    diffs = compare(est, numeric)
    numeric_layers = [numeric.q_hat.ravel()] + [a.ravel() for a in numeric.q_enc] + [
        a.ravel() for a in numeric.q_dec
    ]
    if args.out:
        with open(args.out, "w") as f:
            f.write("layer,neuron,q_sim,q_num,abs_diff\n")
            for name, sim_q, num_q in zip(est.layer_names, est.per_layer(), numeric_layers):
                for neuron, (s, n) in enumerate(zip(sim_q, num_q)):
                    f.write(f"{name},{neuron},{s:.17g},{n:.17g},{abs(s - n):.17g}\n")
    for d in diffs:
        print(f"{d.layer}: max abs diff {d.max_abs_diff:.6g}  mean abs diff {d.mean_abs_diff:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lrnn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[], help="train an autoencoder")
    _add_data_flags(p)
    p.add_argument("--arch", required=True, help="layer sizes, e.g. 784,100")
    p.add_argument("--algo", choices=["shallow", "greedy", "joint"], default="shallow")
    p.add_argument("--batch", type=_positive_int, default=100)
    p.add_argument("--iters", type=_positive_int, default=None, help="total minibatch updates")
    p.add_argument("--epochs", type=_positive_int, default=None, help="full passes over the data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rel-tol", type=float, default=0.0, help="early-stop relative tolerance")
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
    p.add_argument("--index", type=int, default=0, help="instance row to simulate")
    p.add_argument("--events", type=_positive_int, required=True)
    p.add_argument("--observe-every", type=_positive_int, default=1000)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="comparison CSV (layer,neuron,q_sim,q_num,abs_diff)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
