"""All-vectors evaluation of a combinational design on numpy lanes.

Demonstrates the lane evaluator (``repro.sim.batch``): a stateless
combinational design's outputs are a pure function of its inputs, so
every stimulus vector can ride its own lane and one settle evaluates
them all.  The same vectors then go through the per-vector scalar loop
(what the pass@k checker runs), and the two output lists must be
identical.

Run:  PYTHONPATH=src python examples/batch_simulation.py
"""

import time

import numpy as np

from repro.sim import BatchSimulator, Simulator, elaborate, random_stimulus
from repro.utils.rng import DeterministicRNG
from repro.vgen import generate_family
from repro.verilog import parse_source

VECTORS = 384  # the pass@k protocol's stimulus depth


def main() -> None:
    module = generate_family("alu", DeterministicRNG(0x9EEF))
    design = elaborate(parse_source(module.source), module.name)
    outputs = [s.name for s in design.outputs]
    stimulus = random_stimulus(design, VECTORS, seed=1)
    print(f"design: {module.name} ({module.family}), {VECTORS} vectors, "
          f"outputs {outputs}")

    # -- every vector in its own lane: one poke_many, one settle ----------
    start = time.perf_counter()
    sim = BatchSimulator(design, n_lanes=VECTORS)
    sim.poke_many({
        name: np.asarray([vector[name] for vector in stimulus], dtype=np.int64)
        for name in stimulus[0]
    })
    columns = [sim.peek_lanes(name).tolist() for name in outputs]
    lanes = list(zip(*columns))
    lane_seconds = time.perf_counter() - start
    print(f"one lane settle:     {lane_seconds * 1e3:7.2f} ms")

    # -- the scalar loop: one poke_many + peek per vector -----------------
    start = time.perf_counter()
    scalar_sim = Simulator(design)
    scalar = []
    for vector in stimulus:
        scalar_sim.poke_many(vector)
        scalar.append(tuple(scalar_sim.peek(name) for name in outputs))
    scalar_seconds = time.perf_counter() - start
    print(f"per-vector scalar:   {scalar_seconds * 1e3:7.2f} ms")

    assert lanes == scalar  # vector-for-vector identical
    print("outputs identical for every vector")
    for index in (0, VECTORS - 1):
        print(f"  vector {index:3d} {stimulus[index]} -> "
              f"{dict(zip(outputs, lanes[index]))}")


if __name__ == "__main__":
    main()
