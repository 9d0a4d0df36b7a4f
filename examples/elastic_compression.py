"""Model-compression example — deploy a subnet, upgrade existing nets.

Two workflows the paper highlights beyond elastic serving:

1. **Compression by deployment** (Sec. 6): train once with model slicing,
   then ship only the subnet that fits the target device — the weight
   file genuinely shrinks because subnet weights are a prefix of the full
   tensors.
2. **Upgrading an existing network** (Algorithm 1's ``upgrade_model``):
   take a plain ``repro.nn`` model, convert its layers to sliced
   counterparts in place (weights preserved), fine-tune with slicing,
   and serve the result on compiled per-rate plans.

Run:  python examples/elastic_compression.py   (~40 seconds)
"""

import os
import tempfile

import numpy as np

from repro import MLP, RandomStaticScheme, SliceTrainer, slice_rate
from repro.data import ArrayDataset, DataLoader
from repro.metrics import active_params, measured_flops
from repro.nn import Linear, ReLU, Sequential
from repro.optim import SGD
from repro.slicing import PlanCache, materialize_subnet, upgrade_model
from repro.tensor import Tensor, no_grad
from repro.utils import save_model

RATES = [0.25, 0.5, 1.0]


def make_problem(seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(20, 5))
    x = rng.normal(size=(2048, 20)).astype(np.float32)
    y = (x @ w + 0.4 * rng.normal(size=(2048, 5))).argmax(axis=1)
    return ArrayDataset(x[:1536], y[:1536]), ArrayDataset(x[1536:], y[1536:])


def deploy_subnet(model, rate, path):
    """Materialize Subnet-rate as a standalone model and persist it.

    The artifact contains only the active prefix weights — nothing of
    the full model survives, so the on-disk size genuinely shrinks.
    """
    deployed = materialize_subnet(model, rate)
    save_model(deployed, path)
    return deployed, os.path.getsize(path)


def main() -> None:
    train_data, test_data = make_problem()
    loader = lambda: DataLoader(train_data, 64, shuffle=True,
                                rng=np.random.default_rng(1))

    # ------------------------------------------------------------------
    # 1. Train once, deploy at the width the device affords.
    # ------------------------------------------------------------------
    model = MLP(20, [64, 64], 5, seed=0)
    trainer = SliceTrainer(model, RandomStaticScheme(RATES, num_random=1),
                           SGD(model.parameters(), lr=0.05, momentum=0.9),
                           rng=np.random.default_rng(2))
    print("training the elastic model ...")
    trainer.fit(loader, epochs=20)
    results = trainer.evaluate(DataLoader(test_data, 256), rates=RATES)

    full_params = active_params(model, 1.0)
    print(f"\n{'deploy rate':>11} {'params':>9} {'of full':>8} "
          f"{'FLOPs':>9} {'accuracy':>9}")
    for rate in RATES:
        params = active_params(model, rate)
        flops = measured_flops(model, (1, 20), rate)
        print(f"{rate:>11} {params:>9,} {params / full_params:>8.1%} "
              f"{flops:>9,} {results[rate]['accuracy']:>9.3f}")

    with tempfile.TemporaryDirectory() as tmp:
        quarter, small_bytes = deploy_subnet(model, 0.25,
                                             os.path.join(tmp, "q.npz"))
        save_model(model, os.path.join(tmp, "full.npz"))
        full_bytes = os.path.getsize(os.path.join(tmp, "full.npz"))
        # The materialized subnet agrees with the sliced model exactly.
        with no_grad():
            with slice_rate(0.25):
                sliced_out = model(Tensor(test_data.inputs[:8])).data
            deployed_out = quarter(Tensor(test_data.inputs[:8])).data
        assert np.allclose(sliced_out, deployed_out, atol=1e-4)
        print(f"\nquarter-width deployment: {quarter.num_parameters():,} of "
              f"{full_params:,} parameters, checkpoint "
              f"{small_bytes / 1024:.1f}KiB vs {full_bytes / 1024:.1f}KiB "
              f"({small_bytes / full_bytes:.1%}), identical predictions")

    # ------------------------------------------------------------------
    # 2. Upgrade a plain pre-existing network and fine-tune with slicing.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(4)
    plain = Sequential(Linear(20, 64, rng=rng), ReLU(),
                       Linear(64, 64, rng=rng), ReLU(), Linear(64, 5, rng=rng))
    upgraded = upgrade_model(plain)  # weights preserved, layers sliced
    finetuner = SliceTrainer(upgraded,
                             RandomStaticScheme(RATES, num_random=1),
                             SGD(upgraded.parameters(), lr=0.05,
                                 momentum=0.9),
                             rng=np.random.default_rng(3))
    print("\nfine-tuning an upgraded plain network ...")
    finetuner.fit(loader, epochs=15)
    upgraded.eval()

    # The upgraded Sequential is a declared plan family: serve it on
    # compiled per-rate plans, like the bundled models.
    cache = PlanCache()
    print(f"\n{'serve rate':>10} {'params':>9} {'accuracy':>9}")
    for rate in RATES:
        logits = cache.get(upgraded, rate).run(test_data.inputs)
        acc = float((logits.argmax(axis=1) == test_data.targets).mean())
        print(f"{rate:>10} {active_params(upgraded, rate):>9,} {acc:>9.3f}")
    with no_grad():
        with slice_rate(0.25):
            live = upgraded(Tensor(test_data.inputs)).data
    served = cache.get(upgraded, 0.25).run(test_data.inputs)
    assert np.array_equal(served.argmax(axis=1), live.argmax(axis=1))
    print("upgraded network served on plans: quarter-width predictions "
          "identical to the live sliced forward")


if __name__ == "__main__":
    main()
