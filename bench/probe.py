"""Set-up probe, run as a fresh process to time the benchmark's ``setup_s``.

    python3 bench/probe.py DATA FORMAT MODEL INDEX

Imports ``lrnn`` and makes the public calls that ``lrnn simulate`` makes
before it simulates: dataset load, ``load_model`` and ``compile_sim``.
Prints the dataset shape and neuron count so the caller can check them.
"""

import sys


def main(argv: list[str]) -> int:
    data, fmt, model_path, index = argv
    import lrnn

    dataset = lrnn.load_dataset(data, fmt)
    model = lrnn.load_model(model_path)
    net = lrnn.compile_sim(model, dataset.x[int(index)])
    print(dataset.instance_count, dataset.attribute_count, net.n_neurons)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
